package obs

import (
	"math"
	"runtime"
	"strings"
	"testing"
)

// hexID reports whether id is n lowercase hex digits, not all zero,
// checked independently of the parser's own helpers.
func hexID(id string, n int) bool {
	return len(id) == n && strings.Trim(id, "0123456789abcdef") == "" && strings.Trim(id, "0") != ""
}

// FuzzParseTraceparent feeds arbitrary header values to the traceparent
// parser, the network boundary every inbound serving and fleet request
// crosses, starting from the corpus in testdata/fuzz. It must never
// panic, an accepted value must yield non-zero lowercase-hex ids of the
// W3C lengths that survive a FormatTraceparent round trip, a rejected
// one must yield no ids, and parsing must not allocate beyond a small
// multiple of the header it was given.
func FuzzParseTraceparent(f *testing.F) {
	f.Fuzz(func(t *testing.T, h string) {
		// The fuzzing engine allocates on other goroutines, so the
		// smaller of two measured parses is the parser's own cost.
		var traceID, spanID string
		var err error
		alloc := uint64(math.MaxUint64)
		for i := 0; i < 2; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			traceID, spanID, err = ParseTraceparent(h)
			runtime.ReadMemStats(&after)
			alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
		}
		if budget := uint64(32*len(h) + 1024); alloc > budget {
			t.Fatalf("parsing %d bytes allocated %d bytes, want <= %d", len(h), alloc, budget)
		}
		if err != nil {
			if traceID != "" || spanID != "" {
				t.Fatalf("rejected %q but returned ids %q, %q", h, traceID, spanID)
			}
			return
		}
		if !hexID(traceID, 32) {
			t.Fatalf("accepted %q with trace id %q", h, traceID)
		}
		if !hexID(spanID, 16) {
			t.Fatalf("accepted %q with span id %q", h, spanID)
		}
		gotTrace, gotSpan, err := ParseTraceparent(FormatTraceparent(traceID, spanID))
		if err != nil || gotTrace != traceID || gotSpan != spanID {
			t.Fatalf("round trip of %q gave (%q, %q, %v)", h, gotTrace, gotSpan, err)
		}
	})
}
