// Package bind implements ModelNet's Binding phase (§2.1–2.2): deciding
// what runs where, and how packets find their way.
//
//   - Bind assigns VNs to edge nodes and cores and builds the routing
//     table: the precomputed all-pairs matrix (BuildMatrix) or the bounded
//     LRU route cache (NewCache), the two storage designs the paper built.
//     Under sharded distribution each worker routes with a ShardTable over
//     its ShardView, seeded by the coordinator's SummaryOracle. All four are
//     fronts for one route engine (engine.go), so every table in every
//     execution mode holds the same canonical routes. The engine caches
//     distance fields per (reroute epoch, target's key) — the key of a leaf
//     target, one whose only in-link is its access pipe, is its attachment
//     router, so the VNs behind one router share one field; each field carries
//     a next-hop memo filled by the walks that cross it, so a route costs its
//     length once its nodes have been scanned, and a matrix over n VNs is one
//     field per key plus 8 bytes per pair and one pipe ID per hop (DESIGN.md
//     §9 has the proof and the cost model).
//   - POD is the pipe ownership directory: which core owns each pipe, and
//     therefore when a multi-core emulation must tunnel a packet's
//     descriptor to a peer core.
//   - GatewayTable is the live-edge analog of the VN binding: it maps the
//     real five-tuples arriving at an edge gateway (internal/edge) onto
//     ingress VNs, statically pinned or dynamically claimed with LRU
//     eviction, so unmodified external processes can impersonate virtual
//     nodes at one narrow, explicitly brokered boundary.
package bind
