package main

// Setup-phase spans of the traced pass. The phases run inside modelnet.Run
// and fednet.Run, where the benchmark cannot reach them, so the traced run
// repeats each public call on the workload's own topology after the
// measured run has finished and times it from outside.

import (
	"time"

	"modelnet"
	"modelnet/internal/assign"
	"modelnet/internal/bind"
	"modelnet/internal/distill"
	"modelnet/internal/fednet/wire"
	"modelnet/internal/parcore"
	"modelnet/internal/pipes"
	"modelnet/internal/topology"
)

// matrixMaxVNs bounds the populations the O(n²) matrix build is timed on.
const matrixMaxVNs = 4096

// setupSpans times distill, assign, the route-table builds, the sync plan
// and the shard-view pipeline on g, recording each as a span under parent
// and as a *_ms count. A phase that fails is left out: the measured run
// already succeeded through the same calls, so a failure here is reported
// by the missing metric reading 0.
func setupSpans(rec *spanRecorder, parent int, g *modelnet.Graph, seed int64, c map[string]float64) {
	timeIt := func(name string, fn func() error) bool {
		from := time.Now()
		err := fn()
		to := time.Now()
		if err != nil {
			return false
		}
		rec.add("setup."+name, parent, from, to)
		c[name+"_ms"] = float64(to.Sub(from).Nanoseconds()) / 1e6
		return true
	}
	var dist *distill.Result
	var asn *assign.Assignment
	var bnd *bind.Binding
	var views []*bind.ShardView
	if !timeIt("distill", func() (err error) { dist, err = distill.Distill(g, distill.Spec{}); return }) {
		return
	}
	if !timeIt("kclusters", func() (err error) { asn, err = assign.KClusters(dist.Graph, shards, seed); return }) {
		return
	}
	clients := dist.Graph.Clients()
	if len(clients) <= matrixMaxVNs {
		timeIt("matrix_build", func() error { _, err := bind.BuildMatrix(dist.Graph, clients); return err })
	}
	var err error
	if bnd, err = bind.Bind(dist.Graph, bind.Options{Cores: shards, LazyRoutes: true}); err != nil {
		return
	}
	pod := bind.NewPOD(asn.Owner, asn.Cores)
	homes := parcore.Homes(dist.Graph, bnd, pod, shards)
	timeIt("sync_plan", func() error {
		parcore.ComputeSyncPlan(dist.Graph, bnd, pod, homes, shards, nil)
		return nil
	})
	if asn.NodeOwner == nil {
		return
	}
	if !timeIt("shardviews", func() (err error) {
		views, err = bind.BuildShardViews(dist.Graph, asn.Owner, asn.NodeOwner, asn.Cores)
		return
	}) {
		return
	}
	timeIt("shardview_enc", func() error { wire.EncodeShardView(views[0]); return nil })
	// One cold distance field on shard 0's view: the first lookup toward a
	// target pages the frontier summary and runs the shard-local Dijkstra.
	oracle := bind.NewSummaryOracle(dist.Graph, func(int32) ([]topology.LinkID, error) { return nil, nil }, 0, 0)
	skel, err := views[0].Skeleton()
	if err != nil {
		return
	}
	table, err := bind.NewShardTable(skel, views[0], bnd.VNHome, oracle.SeedFuncFor(views[0].Summary), 0)
	if err != nil {
		return
	}
	var src pipes.VN
	for v, h := range homes {
		if h == 0 {
			src = pipes.VN(v)
			break
		}
	}
	dst := pipes.VN(len(homes) - 1)
	timeIt("shardtable_field", func() error { table.Lookup(src, dst); return nil })
}
