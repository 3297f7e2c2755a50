package bind_test

import (
	"fmt"
	"math/rand"
	"testing"

	"modelnet/internal/bind"
	"modelnet/internal/pipes"
)

// TestNextHopMemoDifferential: a next-hop memo lives inside its distance field
// and is filled by whichever walk crosses a node first, so a stale, misplaced
// or outliving memo would show only when a later walk reads what an earlier
// one from somewhere else wrote. On the reference worlds — whole graph or 2–4
// shard views — long-lived tables resolve every (pinned epoch, source, target)
// in shuffled order, and each route must equal both the Bellman–Ford
// reference and a cold walk on tables built for that one lookup (memo empty).
// The schedule covers every way a memo ends or must not be shared: Extend
// under an older or a not-yet-reached pinned epoch after Advance (memo keyed
// by epoch with its field), every fourth world at field capacity 1 (each field
// evicted and recomputed between uses of it), and a Cache at route capacity 1
// across Reroute (every lookup walks; the memo goes with the dropped field).
func TestNextHopMemoDifferential(t *testing.T) {
	for trial := 0; trial < 240; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7300 + trial)))
			r := newRefRig(t, rng, 64)
			fieldCap := 64
			if trial%4 == 3 {
				fieldCap = 1
			}
			warm := r.tables(t, fieldCap, 0)
			cache := bind.NewCache(r.g, r.homes, 1)
			type query struct{ pinned, s, d int }
			for e := range r.downs {
				e32 := int32(e)
				if e > 0 {
					cache.Reroute(r.downs[e])
					for _, tb := range warm {
						tb.Advance()
					}
				}
				var qs []query
				for p := range r.downs {
					for s := range r.homes {
						for d := range r.homes {
							if s != d && (p == e || r.want[p][s][d] != nil) {
								qs = append(qs, query{p, s, d})
							}
						}
					}
				}
				rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
				for _, q := range qs {
					got, ok := r.stitched(t, warm, e32, int32(q.pinned), q.s, q.d)
					r.check(t, fmt.Sprintf("warm ShardTable at epoch %d, packet pinned to", e), q.pinned, q.s, q.d, got, ok)
					if q.pinned != e {
						continue
					}
					cold, cok := r.stitched(t, r.tables(t, 1, e32), e32, e32, q.s, q.d)
					if ok != cok || !routesEqual(got, cold) {
						t.Fatalf("epoch %d VN %d->%d: memoized walk %v ok=%v, cold walk %v ok=%v", e, q.s, q.d, got, ok, cold, cok)
					}
					got, ok = cache.Lookup(pipes.VN(q.s), pipes.VN(q.d))
					r.check(t, "Cache across Reroute", e, q.s, q.d, got, ok)
				}
			}
		})
	}
}
