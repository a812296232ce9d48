// Package fleet is the horizontal-scale serving layer: it puts N
// auserve backends behind one front door. Three pieces compose
// (DESIGN.md §5i):
//
//   - Ring — a consistent-hash ring with virtual nodes mapping model
//     names to backends, so adding or losing one backend remaps only
//     that backend's share of the models.
//   - Router — an HTTP frontend speaking the exact serve wire protocol
//     (JSON and binary predict, act, observe, reload, snapshot
//     install), forwarding each request to the model's owner, shipping
//     AUSN snapshot shards to the backends the ring assigns them to,
//     and aggregating per-backend health and /statusz into one fleet
//     posture.
//   - Supervisor — a neutral process babysitter owning backend
//     lifecycle only: spawn, monitor, restart with jittered
//     exponential backoff, crash-loop detection. All request semantics
//     stay in the workers (the auserve processes); the supervisor
//     never inspects a request.
//
// Clients reach the fleet only through the router. Dial takes its URL
// exactly as it takes a single auserve's, so a host graduates from one
// server to a fleet with no code change.
package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVNodes is the default virtual-node count per backend: enough
// that model shares stay within a few percent of even for small
// fleets, cheap enough that ring rebuilds are microseconds.
const DefaultVNodes = 64

// Ring is a consistent-hash ring with virtual nodes. Each member
// (backend base URL) projects VNodes points onto a 64-bit circle; a
// key's owner is the member owning the first point at or clockwise of
// the key's hash. Removing a member therefore remaps only the keys
// that member owned, and virtual nodes keep the shares balanced.
//
// Ring is not safe for concurrent use; its caller, the Router, guards
// it with its own lock.
type Ring struct {
	vnodes  int
	keys    []uint64 // sorted point hashes
	owners  map[uint64]string
	members map[string]struct{}
}

// NewRing returns an empty ring with the given virtual-node count per
// member (<=0 selects DefaultVNodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{
		vnodes:  vnodes,
		owners:  make(map[uint64]string),
		members: make(map[string]struct{}),
	}
}

// hash64 is FNV-1a over s with a 64-bit avalanche finalizer (the
// MurmurHash3 fmix64 step). Raw FNV clusters badly when inputs differ
// only in a short suffix — exactly the "member#i" virtual-node shape —
// which skews ring shares several-fold; the finalizer restores uniform
// point spread. The whole function is fixed arithmetic, stable across
// processes and Go versions, so two rings with the same member set
// agree on every owner.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Add inserts a member's virtual nodes. Adding a present member is a
// no-op. In the astronomically unlikely event of a point collision
// between two members, the incumbent keeps the point.
func (r *Ring) Add(member string) {
	if _, ok := r.members[member]; ok {
		return
	}
	r.members[member] = struct{}{}
	for i := 0; i < r.vnodes; i++ {
		h := hash64(fmt.Sprintf("%s#%d", member, i))
		if _, taken := r.owners[h]; taken {
			continue
		}
		r.owners[h] = member
		r.keys = append(r.keys, h)
	}
	sort.Slice(r.keys, func(i, j int) bool { return r.keys[i] < r.keys[j] })
}

// Remove deletes a member and its virtual nodes. Removing an absent
// member is a no-op.
func (r *Ring) Remove(member string) {
	if _, ok := r.members[member]; !ok {
		return
	}
	delete(r.members, member)
	kept := r.keys[:0]
	for _, h := range r.keys {
		if r.owners[h] == member {
			delete(r.owners, h)
			continue
		}
		kept = append(kept, h)
	}
	r.keys = kept
}

// Owner returns the member owning key, or ok=false on an empty ring.
func (r *Ring) Owner(key string) (string, bool) {
	if len(r.keys) == 0 {
		return "", false
	}
	h := hash64(key)
	i := sort.Search(len(r.keys), func(i int) bool { return r.keys[i] >= h })
	if i == len(r.keys) {
		i = 0 // wrap: the circle's first point owns the top arc
	}
	return r.owners[r.keys[i]], true
}

// Has reports membership.
func (r *Ring) Has(member string) bool {
	_, ok := r.members[member]
	return ok
}

// Members returns the member set sorted.
func (r *Ring) Members() []string {
	out := make([]string, 0, len(r.members))
	for m := range r.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Len reports the member count.
func (r *Ring) Len() int { return len(r.members) }
