package semantics

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary text to Parse, which cmd/ausem runs on a
// program file. Seeded with every statement form in Parse's doc, it must
// never panic, must not allocate beyond a small multiple of the input it
// was given, and every error must name the first line that fails: the
// lines before it parse, and that line fails on its own.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"x := 1 2 3",
		"@au_config(m, DNN, Q, 2, 256, 64)",
		"@au_config(m, CNN, AdamOpt, 1, 8)",
		"@au_extract(X, size, x)",
		"@au_extract(X, x)",
		"@au_serialize(A, B)",
		"@au_NN(m, X, out)",
		"@au_write_back(out, size, y)",
		"@au_write_back(out, y)",
		"@au_checkpoint()",
		"@au_restore()",
		"# comment\n\n// comment\none := 1\n@au_extract(PX, one, px)",
		"one := 1\npx := 3.5\n@au_config(Mario, DNN, Q, 2, 256, 64)\n@au_checkpoint()\n" +
			"@au_extract(PX, one, px)\n@au_NN(Mario, PX, output)\n@au_write_back(output, one, actionKey)",
		"x := 1\n@au_bogus()\ny := 2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// The fuzzing engine allocates on other goroutines, so the
		// smaller of two measured parses is the parser's own cost.
		var stmts []Stmt
		var err error
		alloc := uint64(math.MaxUint64)
		for i := 0; i < 2; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			stmts, err = Parse(src)
			runtime.ReadMemStats(&after)
			alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
		}
		if budget := uint64(32*len(src) + 16<<10); alloc > budget {
			t.Fatalf("parsing %d bytes allocated %d bytes, want <= %d", len(src), alloc, budget)
		}
		lines := strings.Split(src, "\n")
		if err == nil {
			if len(stmts) > len(lines) {
				t.Fatalf("%d statements from %d lines", len(stmts), len(lines))
			}
			return
		}
		var n int
		if _, scanErr := fmt.Sscanf(err.Error(), "semantics: line %d:", &n); scanErr != nil || n < 1 || n > len(lines) {
			t.Fatalf("error %q names no line of the %d-line input", err, len(lines))
		}
		if _, err := Parse(strings.Join(lines[:n-1], "\n")); err != nil {
			t.Fatalf("error names line %d, but an earlier line fails: %v", n, err)
		}
		if _, err := Parse(lines[n-1]); err == nil {
			t.Fatalf("error names line %d, which parses on its own", n)
		}
	})
}
