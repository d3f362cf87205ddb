//go:build ignore

// Generates the snapshot compatibility fixtures under testdata/: one
// binary snapshot per covered configuration plus a golden file holding
// the live engine's Explain output and spot answers at generation time.
// The compat test (snapshot_compat_test.go) restores the checked-in
// bytes with the current reader and asserts the restored engine still
// reports the identical Explain and identical answers — the guarantee
// that newer format versions keep reading older files.
//
// Regenerate (from the repo root, against the writer version being
// frozen) with:
//
//	go run ./internal/engine/testdata/gen_fixtures.go
//
// Outputs are named after the writer's format version
// (engine_v<N>_<config>.snap); commit only the files of configurations
// not yet frozen at that version — checked-in fixtures never change.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"unn/internal/engine"
	"unn/internal/geom"
	"unn/internal/snapshot"
	"unn/internal/uncertain"
)

type golden struct {
	Explain      string
	CacheQuantum float64
	Capabilities string
	Queries      []goldenQuery
}

type goldenQuery struct {
	X, Y     float64
	Nonzero  []int
	Probs    []probRow `json:",omitempty"`
	Expected *expRow   `json:",omitempty"`
}

type probRow struct {
	I int
	P float64
}

type expRow struct {
	I int
	D float64
}

func main() {
	dir := "internal/engine/testdata"
	if _, err := os.Stat(dir); err != nil {
		// Allow running from the testdata directory itself.
		dir = "."
	}
	rng := rand.New(rand.NewSource(0x11e8))
	pts := make([]*uncertain.Discrete, 60)
	gen := make([]uncertain.Point, len(pts))
	for i := range pts {
		cx, cy := rng.Float64()*100, rng.Float64()*100
		locs := make([]geom.Point, 3)
		w := make([]float64, 3)
		for a := range locs {
			locs[a] = geom.Pt(cx+rng.Float64()*4, cy+rng.Float64()*4)
			w[a] = 0.1 + rng.Float64()
		}
		p, err := uncertain.NewDiscrete(locs, w)
		if err != nil {
			panic(err)
		}
		pts[i] = p
		gen[i] = p
	}
	ds := &engine.Dataset{Points: gen, Discrete: pts}

	// Configuration 1: sharded + planned + insert buffer + cache — the
	// densest meta section the format writes (per-shard plans, model
	// coefficients, buffer state).
	ix, _, err := engine.BuildPlanned(ds, engine.BuildOptions{},
		engine.ShardOptions{Shards: 3, InsertBuffer: true},
		engine.PlannerOptions{Mix: engine.Workload{Nonzero: 1, Probs: 0.5, Expected: 0.25}})
	if err != nil {
		panic(err)
	}
	eng := engine.NewEngine(ix, engine.Options{Workers: 2, CacheSize: 32, CacheQuantum: 0.25})
	emit(dir, "sharded_planned", eng)

	// Configuration 2: plain named backend with a kd-tree payload — the
	// zero-copy slab restore path.
	disks := make([]geom.Disk, 40)
	for i := range disks {
		disks[i] = geom.DiskAt(rng.Float64()*100, rng.Float64()*100, 0.5+rng.Float64()*3)
	}
	dix, err := engine.Build(engine.BackendTwoStageDisks, engine.FromDisks(disks), engine.BuildOptions{})
	if err != nil {
		panic(err)
	}
	emit(dir, "plain_kd", engine.NewEngine(dix, engine.Options{Workers: 1}))

	// Configurations 3 and 4: the automatic backend choice over disks,
	// sharded (k=3) and monolithic — the brute NN≠0 oracle together with
	// Monte Carlo for π and top-k (format version 3 and older wrote this
	// composite as a "routed" index section).
	adisks := make([]geom.Disk, 48)
	for i := range adisks {
		adisks[i] = geom.DiskAt(rng.Float64()*100, rng.Float64()*100, 0.5+rng.Float64()*3)
	}
	for _, c := range []struct {
		name   string
		shards int
	}{{"sharded_auto_disks", 3}, {"plain_auto_disks", 0}} {
		aix, err := engine.BuildAuto(engine.FromDisks(adisks), engine.BuildOptions{}, engine.ShardOptions{Shards: c.shards})
		if err != nil {
			panic(err)
		}
		emit(dir, c.name, engine.NewEngine(aix, engine.Options{Workers: 2, CacheSize: 32, CacheQuantum: -1}))
	}
}

func emit(dir, config string, eng *engine.Engine) {
	name := fmt.Sprintf("engine_v%d_%s", snapshot.Version, config)
	var buf bytes.Buffer
	if err := engine.WriteSnapshot(&buf, eng); err != nil {
		panic(err)
	}
	g := golden{
		Explain:      eng.Explain(),
		CacheQuantum: eng.CacheQuantum(),
		Capabilities: eng.Capabilities().String(),
	}
	for _, q := range []geom.Point{geom.Pt(10, 10), geom.Pt(50, 55), geom.Pt(90, 20)} {
		gq := goldenQuery{X: q.X, Y: q.Y}
		nz, err := eng.QueryNonzero(q)
		if err != nil {
			panic(err)
		}
		gq.Nonzero = nz
		if eng.Capabilities().Has(engine.CapProbs) {
			ps, err := eng.QueryProbs(q, 0)
			if err != nil {
				panic(err)
			}
			for _, p := range ps {
				gq.Probs = append(gq.Probs, probRow{I: p.I, P: p.P})
			}
		}
		if eng.Capabilities().Has(engine.CapExpected) {
			i, d, err := eng.QueryExpected(q)
			if err != nil {
				panic(err)
			}
			gq.Expected = &expRow{I: i, D: d}
		}
		g.Queries = append(g.Queries, gq)
	}
	if err := os.WriteFile(filepath.Join(dir, name+".snap"), buf.Bytes(), 0o644); err != nil {
		panic(err)
	}
	gb, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		panic(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name+".golden.json"), append(gb, '\n'), 0o644); err != nil {
		panic(err)
	}
	fmt.Printf("wrote %s (%d bytes)\n", name, buf.Len())
}
