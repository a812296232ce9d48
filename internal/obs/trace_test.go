package obs

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// TestTraceparentRoundTrip pins the wire format: ids survive
// format→parse bit-exactly.
func TestTraceparentRoundTrip(t *testing.T) {
	for i := 0; i < 64; i++ {
		traceID, spanID := NewTraceID(), NewSpanID()
		h := FormatTraceparent(traceID, spanID)
		gotTrace, gotSpan, err := ParseTraceparent(h)
		if err != nil {
			t.Fatalf("round trip of %q failed: %v", h, err)
		}
		if gotTrace != traceID || gotSpan != spanID {
			t.Fatalf("round trip mangled ids: %q -> (%q, %q), want (%q, %q)",
				h, gotTrace, gotSpan, traceID, spanID)
		}
	}
	if h := FormatTraceparent("0af7651916cd43dd8448eb211c80319c", "b7ad6b7169203331"); h != "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01" {
		t.Fatalf("unexpected header rendering %q", h)
	}
}

// TestParseTraceparentMalformed pins strict W3C validation: every
// malformed header is rejected, never half-parsed.
func TestParseTraceparentMalformed(t *testing.T) {
	valid := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	if _, _, err := ParseTraceparent(valid); err != nil {
		t.Fatalf("reference header rejected: %v", err)
	}
	bad := map[string]string{
		"empty":             "",
		"garbage":           "not-a-traceparent",
		"too few fields":    "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331",
		"five fields":       valid + "-extra",
		"short trace id":    "00-0af7651916cd43dd8448eb211c8031-b7ad6b7169203331-01",
		"short span id":     "00-0af7651916cd43dd8448eb211c80319c-b7ad6b716920333-01",
		"uppercase hex":     "00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01",
		"non-hex trace id":  "00-0ag7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"zero trace id":     "00-00000000000000000000000000000000-b7ad6b7169203331-01",
		"zero span id":      "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",
		"version ff":        "ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"short version":     "0-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"non-hex flags":     "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-zz",
		"surrounding space": " " + valid + " ",
	}
	for name, h := range bad {
		if _, _, err := ParseTraceparent(h); err == nil {
			t.Errorf("%s: header %q accepted, want rejection", name, h)
		}
	}
}

// TestContinueFromHeader checks the server-side continuation contract:
// a valid header installs the remote parent (the next span joins the
// caller's trace), an empty header is a silent no-op, and a malformed
// header returns the context unchanged plus a non-nil error.
func TestContinueFromHeader(t *testing.T) {
	old := SetTracing(true)
	defer SetTracing(old)

	traceID, spanID := NewTraceID(), NewSpanID()
	ctx, err := ContinueFromHeader(context.Background(), FormatTraceparent(traceID, spanID))
	if err != nil {
		t.Fatal(err)
	}
	gotTrace, gotSpan, ok := SpanContextFrom(ctx)
	if !ok || gotTrace != traceID || gotSpan != spanID {
		t.Fatalf("continued context carries (%q, %q, %v), want (%q, %q, true)",
			gotTrace, gotSpan, ok, traceID, spanID)
	}
	_, sp := StartSpan(ctx, "server.op")
	if sp.TraceID() != traceID {
		t.Errorf("span under remote parent has trace %q, want %q", sp.TraceID(), traceID)
	}
	sp.End(nil)

	base := context.Background()
	if got, err := ContinueFromHeader(base, ""); err != nil || got != base {
		t.Errorf("empty header: (%v, %v), want unchanged context and nil error", got, err)
	}
	if got, err := ContinueFromHeader(base, "junk"); err == nil || got != base {
		t.Errorf("malformed header: (%v, %v), want unchanged context and an error", got, err)
	}
}

// TestInjectTraceparent checks the client-side injection gate: the
// header appears only when tracing is on and the context carries a
// span.
func TestInjectTraceparent(t *testing.T) {
	old := SetTracing(true)
	defer SetTracing(old)

	ctx, sp := StartSpan(context.Background(), "client.op")
	h := make(http.Header)
	InjectTraceparent(ctx, h)
	wire := h.Get(TraceparentHeader)
	traceID, spanID, err := ParseTraceparent(wire)
	if err != nil {
		t.Fatalf("injected header %q does not parse: %v", wire, err)
	}
	if traceID != sp.TraceID() || spanID != sp.SpanID() {
		t.Errorf("injected (%q, %q), want the live span's (%q, %q)",
			traceID, spanID, sp.TraceID(), sp.SpanID())
	}
	sp.End(nil)

	h = make(http.Header)
	InjectTraceparent(context.Background(), h)
	if got := h.Get(TraceparentHeader); got != "" {
		t.Errorf("injection without a span set %q, want no header", got)
	}

	SetTracing(false)
	h = make(http.Header)
	InjectTraceparent(ctx, h)
	if got := h.Get(TraceparentHeader); got != "" {
		t.Errorf("injection with tracing off set %q, want no header", got)
	}
}

// TestSpanTraceIdentity checks id plumbing through StartSpan: roots
// mint a fresh trace, children inherit it and record the parent's span
// id, and links land in the ring record.
func TestSpanTraceIdentity(t *testing.T) {
	oldT := SetTracing(true)
	defer SetTracing(oldT)
	prev := SetDefault(nil)
	defer SetDefault(prev)

	ctx, root := StartSpan(context.Background(), "root")
	if len(root.TraceID()) != 32 || len(root.SpanID()) != 16 {
		t.Fatalf("root ids (%q, %q), want 32- and 16-hex", root.TraceID(), root.SpanID())
	}
	_, child := StartSpan(ctx, "child")
	if child.TraceID() != root.TraceID() {
		t.Errorf("child trace %q, want inherited %q", child.TraceID(), root.TraceID())
	}
	if child.SpanID() == root.SpanID() {
		t.Error("child reused the parent's span id")
	}
	linkTrace, linkSpan := NewTraceID(), NewSpanID()
	child.AddLink(linkTrace, linkSpan)
	child.AddLink("", "ignored") // incomplete links are dropped
	child.End(nil)
	root.End(nil)

	var rec *SpanRecord
	for _, r := range RecentSpans() {
		if r.Name == "child" && r.SpanID == child.SpanID() {
			rec = &r
			break
		}
	}
	if rec == nil {
		t.Fatal("child span missing from the ring")
	}
	if rec.TraceID != root.TraceID() || rec.ParentID != root.SpanID() {
		t.Errorf("record identity (%q, parent %q), want (%q, %q)",
			rec.TraceID, rec.ParentID, root.TraceID(), root.SpanID())
	}
	if len(rec.Links) != 1 || rec.Links[0] != (SpanLink{TraceID: linkTrace, SpanID: linkSpan}) {
		t.Errorf("record links %+v, want the one added link", rec.Links)
	}
}

// TestSpanRingEvictsOldest checks that overflow past the ring's
// capacity evicts oldest-first and keeps the newest spanRingSize
// records in order.
func TestSpanRingEvictsOldest(t *testing.T) {
	oldT := SetTracing(true)
	defer SetTracing(oldT)
	prev := SetDefault(nil)
	defer SetDefault(prev)

	const extra = 2
	for i := 0; i < spanRingSize+extra; i++ {
		_, sp := StartSpan(context.Background(), fmt.Sprintf("s%d", i))
		sp.End(nil)
	}
	recs := RecentSpans()
	if len(recs) != spanRingSize {
		t.Fatalf("ring holds %d records, want capacity %d", len(recs), spanRingSize)
	}
	for i, r := range recs {
		if want := fmt.Sprintf("s%d", i+extra); r.Name != want {
			t.Fatalf("ring[%d] = %q, want %q (overflow must evict oldest)", i, r.Name, want)
		}
	}
}

// TestSpanConcurrency hammers the span path from many goroutines —
// Span End into the shared ring, RecentSpans snapshots and
// WritePrometheus renders all interleaved. Run under -race in CI;
// the assertions here are liveness plus well-formed output.
func TestSpanConcurrency(t *testing.T) {
	oldT := SetTracing(true)
	defer SetTracing(oldT)
	prev := SetDefault(NewRegistry())
	defer SetDefault(prev)
	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ctx, parent := StartSpan(context.Background(), "hammer.parent")
				_, child := StartSpan(ctx, "hammer.child")
				child.AddLink(NewTraceID(), NewSpanID())
				child.End(nil)
				parent.End(nil)
			}
		}(w)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			for _, r := range RecentSpans() {
				if r.Name == "" {
					t.Error("ring returned an empty record")
					return
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		var sb strings.Builder
		for i := 0; i < 100; i++ {
			sb.Reset()
			if err := Default().WritePrometheus(&sb); err != nil {
				t.Errorf("WritePrometheus: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	h := Default().Histogram("autonomizer_span_duration_seconds", "", nil, Labels{"span": "hammer.child"})
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("span histogram count %d, want %d", got, workers*perWorker)
	}
}
