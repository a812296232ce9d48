package fleet

import (
	"fmt"
	"testing"
)

// TestRingDeterminism pins the property the whole fleet design leans
// on: two rings built from the same member set agree on every owner —
// regardless of insertion order — so a router restarted over the same
// backends, or a test computing owners offline, places identically.
func TestRingDeterminism(t *testing.T) {
	a := NewRing(0)
	b := NewRing(0)
	members := []string{"http://h1:1", "http://h2:1", "http://h3:1"}
	for _, m := range members {
		a.Add(m)
	}
	for i := len(members) - 1; i >= 0; i-- {
		b.Add(members[i])
	}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("model-%d", i)
		ao, _ := a.Owner(key)
		bo, _ := b.Owner(key)
		if ao != bo {
			t.Fatalf("rings disagree on %q: %q vs %q", key, ao, bo)
		}
	}
}

// TestRingMinimalRemap: removing one member remaps only the keys that
// member owned; every other key keeps its owner. This is the property
// that makes a backend death cheap — the survivors keep their models.
func TestRingMinimalRemap(t *testing.T) {
	r := NewRing(0)
	members := []string{"http://h1:1", "http://h2:1", "http://h3:1", "http://h4:1"}
	for _, m := range members {
		r.Add(m)
	}
	before := make(map[string]string)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("model-%d", i)
		before[key], _ = r.Owner(key)
	}
	victim := members[1]
	r.Remove(victim)
	moved := 0
	for key, was := range before {
		now, ok := r.Owner(key)
		if !ok {
			t.Fatalf("ring emptied unexpectedly")
		}
		if was == victim {
			if now == victim {
				t.Fatalf("key %q still owned by removed member", key)
			}
			moved++
			continue
		}
		if now != was {
			t.Fatalf("key %q moved from surviving member %q to %q", key, was, now)
		}
	}
	if moved == 0 {
		t.Fatal("victim owned no keys; balance is broken")
	}
}

// TestRingBalance: with virtual nodes, 4 members split 10k keys within
// a loose band of even (no member under half or over double its fair
// share).
func TestRingBalance(t *testing.T) {
	r := NewRing(0)
	counts := make(map[string]int)
	for i := 0; i < 4; i++ {
		m := fmt.Sprintf("http://h%d:1", i)
		r.Add(m)
		counts[m] = 0
	}
	const keys = 10000
	for i := 0; i < keys; i++ {
		o, _ := r.Owner(fmt.Sprintf("model-%d", i))
		counts[o]++
	}
	fair := keys / 4
	for m, n := range counts {
		if n < fair/2 || n > fair*2 {
			t.Errorf("member %s owns %d of %d keys (fair share %d)", m, n, keys, fair)
		}
	}
}

// TestRingEdgeCases: empty ring, re-add, re-remove, membership.
func TestRingEdgeCases(t *testing.T) {
	r := NewRing(8)
	if _, ok := r.Owner("m"); ok {
		t.Fatal("empty ring returned an owner")
	}
	r.Add("a")
	r.Add("a") // idempotent
	if r.Len() != 1 {
		t.Fatalf("Len = %d after duplicate add, want 1", r.Len())
	}
	if o, ok := r.Owner("anything"); !ok || o != "a" {
		t.Fatalf("single-member ring routed to %q, %v", o, ok)
	}
	r.Remove("missing") // no-op
	r.Remove("a")
	if r.Len() != 0 {
		t.Fatalf("Len = %d after remove, want 0", r.Len())
	}
	if _, ok := r.Owner("m"); ok {
		t.Fatal("emptied ring returned an owner")
	}
	r.Add("b")
	r.Add("c")
	got := r.Members()
	if len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Fatalf("Members = %v, want [b c]", got)
	}
}
