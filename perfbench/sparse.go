package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/inst"
	"repro/internal/obs"
)

const (
	// sparseSinks puts every net well above the auto-mode crossover
	// (core.SparseThreshold), so engine.Build takes the sparse substrate.
	sparseSinks = 10000
	// sparsePool is the number of distinct nets a run cycles through.
	// One pass takes 15-32 s on the 2-core reference host, by eps and
	// by the host's drift; perfbench/README.md has the figures.
	sparsePool = 44
	extent     = 1000.0
)

// sparseBench builds BKRUS trees one at a time on fresh instances of
// sparseSinks uniform sinks, cycling through a seeded pool of nets.
type sparseBench struct {
	eps   float64
	nets  [][]geom.Point // source first
	n     int            // nets built so far, over every phase
	first []*sparseOut   // first tree per pool slot
}

type sparseOut struct {
	tree  *graph.Tree
	sum   [32]byte
	ops   int64 // builds of this slot
	diffs int64 // builds whose tree differed from the first
}

// sparseNets draws the pool: per net, uniform sinks and a source.
// Build time varies between nets from 0.35 s to 0.9 s (eps=2), and a
// source near the middle of the square makes the build both faster and
// different (bound rejections). So the sources are stratified: the
// square is cut into a grid of at least pool cells, and net i's source
// is uniform within the i'th cell of a seeded permutation. The seed
// then moves the points but hardly the mix of source positions.
func sparseNets(seed int64, pool, sinks int) [][]geom.Point {
	rng := rand.New(rand.NewSource(seed))
	cols := int(math.Ceil(math.Sqrt(float64(pool))))
	rows := (pool + cols - 1) / cols
	cells := rng.Perm(cols * rows)
	nets := make([][]geom.Point, pool)
	for i := range nets {
		c, r := cells[i]%cols, cells[i]/cols
		src := geom.Point{
			X: (float64(c) + rng.Float64()) * extent / float64(cols),
			Y: (float64(r) + rng.Float64()) * extent / float64(rows),
		}
		nets[i] = append([]geom.Point{src}, uniformPoints(rng, sinks, extent)...)
	}
	return nets
}

func newSparseBench(seed int64, eps float64, pool, sinks int) (*sparseBench, error) {
	b := &sparseBench{eps: eps, nets: sparseNets(seed, pool, sinks), first: make([]*sparseOut, pool)}
	// Warm-up: one build, not counted.
	in, err := inst.New(b.nets[0][0], b.nets[0][1:], geom.Manhattan)
	if err != nil {
		return nil, err
	}
	if _, err := engine.Build(context.Background(), "bkrus", in, engine.Params{Eps: eps}); err != nil {
		return nil, fmt.Errorf("warm-up build: %w", err)
	}
	return b, nil
}

func (b *sparseBench) close() {}

func (b *sparseBench) run(d time.Duration, tr *tracer) phase {
	var rec *recorder
	if tr != nil {
		rec = tr.recorder()
	}
	var ph phase
	var times []opTime
	t0 := time.Now()
	for ph.attempted == 0 || time.Since(t0) < d || b.n < len(b.nets) {
		slot := b.n % len(b.nets)
		start := time.Since(t0)
		t, err := b.build(int64(b.n), slot, rec, &ph.counts)
		end := time.Since(t0)
		lat := float64(end-start) / 1e6
		times = append(times, opTime{op: int64(b.n), start: start, end: end, lat: lat, ok: err == nil})
		ph.attempted++
		b.n++
		if err != nil {
			ph.failed++
			ph.errs = append(ph.errs, fmt.Sprintf("net %d: %v", slot, err))
			continue
		}
		ph.lat = append(ph.lat, lat)
		b.record(slot, t)
	}
	ph.elapsed = time.Since(t0)
	ph.passes = passStats(times, len(b.nets))
	return ph
}

// build is one op: a fresh instance from the slot's points and one
// bkrus build. Traced, it also builds the octant index up front and
// replays the build's edge draw on a fresh stream, so the geometry and
// stream layers get spans of their own.
func (b *sparseBench) build(op int64, slot int, rec *recorder, c *layerCounts) (*graph.Tree, error) {
	root := rec.begin("op", op, -1)
	defer rec.end(root)
	pts := b.nets[slot]
	s := rec.begin("inst.new", op, root)
	in, err := inst.New(pts[0], pts[1:], geom.Manhattan)
	rec.end(s)
	if err != nil {
		return nil, err
	}
	if rec == nil {
		res, err := engine.Build(context.Background(), "bkrus", in, engine.Params{Eps: b.eps})
		if err != nil {
			return nil, err
		}
		return res.Tree, nil
	}
	s = rec.begin("geom.index", op, root)
	ix := in.Index()
	rec.end(s)
	c.indexBuilds++
	c.indexProbes += ix.Probes()
	c.octantCandidates += ix.Candidates()

	reg := obs.NewRegistry()
	s = rec.begin("engine.build.bkrus", op, root)
	res, err := engine.Build(context.Background(), "bkrus", in, engine.Params{Eps: b.eps, Obs: reg})
	rec.end(s)
	if err != nil {
		return nil, err
	}
	drawn := c.addCore(reg, 1)

	s = rec.begin("graph.stream", op, root)
	st := graph.NewSparseEdgeStream(ix, graph.Source)
	for i := int64(0); i < drawn; i++ {
		st.Next()
	}
	rec.end(s)
	c.streamDraws++
	c.streamDrawn += drawn
	c.streamLen += int64(st.Len())
	return res.Tree, nil
}

func (b *sparseBench) record(slot int, t *graph.Tree) {
	sum := edgeSum(t.Edges)
	o := b.first[slot]
	if o == nil {
		o = &sparseOut{tree: t, sum: sum}
		b.first[slot] = o
	}
	o.ops++
	if sum != o.sum {
		o.diffs++
	}
}

// check verifies every distinct tree and that repeats were identical.
func (b *sparseBench) check() checkReport {
	errs := make([]error, len(b.first))
	msts := make([]float64, len(b.first))
	parallel(len(b.first), func(slot int) {
		o := b.first[slot]
		if o == nil {
			return
		}
		pts := b.nets[slot]
		in, err := inst.New(pts[0], pts[1:], geom.Manhattan)
		if err == nil {
			if msts[slot], err = mstCost(in); err == nil {
				err = checkSpanning(in, o.tree, core.UpperOnly(in, b.eps), msts[slot])
			}
		}
		if err == nil && o.diffs > 0 {
			err = fmt.Errorf("%d of %d builds returned a different tree", o.diffs, o.ops)
		}
		errs[slot] = err
	})
	var rep checkReport
	d := newDigest()
	var cost, mst float64
	for slot, o := range b.first {
		if o == nil {
			continue
		}
		if errs[slot] != nil {
			rep.failedOps += o.ops
			rep.errs = append(rep.errs, fmt.Sprintf("net %d: %v", slot, errs[slot]))
		}
		cost += o.tree.Cost()
		mst += msts[slot]
		d.f(float64(slot))
		d.edges(o.tree.Edges)
	}
	rep.digest = d.hex()
	if mst > 0 {
		rep.wirelength = cost / mst
	}
	return rep
}
