// Package bind implements ModelNet's Binding phase (§2.1–2.2): deciding
// what runs where, and how packets find their way.
//
//   - Bind assigns VNs to edge nodes and cores and builds the routing
//     table: the precomputed all-pairs matrix (BuildMatrix) or the bounded
//     LRU route cache (NewCache), the two storage designs the paper built.
//     Under sharded distribution each worker routes with a ShardTable over
//     its ShardView, seeded by the coordinator's SummaryOracle. All four are
//     fronts for one route engine (engine.go), so every table in every
//     execution mode holds the same canonical routes.
//   - POD is the pipe ownership directory: which core owns each pipe, and
//     therefore when a multi-core emulation must tunnel a packet's
//     descriptor to a peer core.
//   - GatewayTable is the live-edge analog of the VN binding: it maps the
//     real five-tuples arriving at an edge gateway (internal/edge) onto
//     ingress VNs, statically pinned or dynamically claimed with LRU
//     eviction, so unmodified external processes can impersonate virtual
//     nodes at one narrow, explicitly brokered boundary.
package bind
