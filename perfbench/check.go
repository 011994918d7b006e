package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/inst"
	"repro/internal/serve"
	"repro/internal/steiner"
)

// relTol is the relative slack of every floating-point comparison the
// checks make (the program's own bound tolerance is 1e-9 too).
const relTol = 1e-9

func atLeast(v, lo float64) bool { return v >= lo-relTol*math.Max(1, math.Abs(lo)) }

// mstCost is the minimal spanning tree cost of in, the floor of every
// spanning tree's cost.
func mstCost(in *inst.Instance) (float64, error) {
	res, err := engine.Build(context.Background(), "mst", in, engine.Params{})
	if err != nil {
		return 0, fmt.Errorf("mst: %w", err)
	}
	return res.Tree.Cost(), nil
}

// checkSpanning verifies that t is a spanning tree over every terminal
// of in whose edge weights are the metric distances, that it meets
// bounds, and that it costs at least mst.
func checkSpanning(in *inst.Instance, t *graph.Tree, b core.Bounds, mst float64) error {
	if t.N != in.N() {
		return fmt.Errorf("tree spans %d nodes, instance has %d", t.N, in.N())
	}
	if err := t.Validate(); err != nil {
		return err
	}
	for _, e := range t.Edges {
		if e.W != in.Dist(e.U, e.V) {
			return fmt.Errorf("edge %d-%d weighs %g, distance is %g", e.U, e.V, e.W, in.Dist(e.U, e.V))
		}
	}
	if !core.FeasibleTree(t, b) {
		return fmt.Errorf("a source-sink path leaves the window [%g, %g]", b.Lower, b.Upper)
	}
	if c := t.Cost(); !atLeast(c, mst) {
		return fmt.Errorf("cost %g below the MST cost %g", c, mst)
	}
	return nil
}

// checkWires verifies a rectilinear Steiner answer: wires whose lengths
// are the L1 distances of their endpoints (a layered jumper wire need
// not be axis-parallel, DESIGN.md "BKST collisions"), forming one tree
// that touches every terminal, with every source-sink path within
// upper, and a cost of at least 2/3 of the MST cost (Hwang's bound on
// the rectilinear Steiner ratio).
func checkWires(in *inst.Instance, ws []serve.Wire, upper, mst float64) error {
	id := make(map[serve.Point]int)
	vertex := func(p serve.Point) int {
		if v, ok := id[p]; ok {
			return v
		}
		id[p] = len(id)
		return len(id) - 1
	}
	var adj [][]graph.Adj
	var cost float64
	for _, w := range ws {
		if l := math.Abs(w.From.X-w.To.X) + math.Abs(w.From.Y-w.To.Y); math.Abs(l-w.Len) > relTol*math.Max(1, l) {
			return fmt.Errorf("wire %v-%v has length %g, endpoints are %g apart", w.From, w.To, w.Len, l)
		}
		u, v := vertex(w.From), vertex(w.To)
		for len(adj) < len(id) {
			adj = append(adj, nil)
		}
		adj[u] = append(adj[u], graph.Adj{To: v, W: w.Len})
		adj[v] = append(adj[v], graph.Adj{To: u, W: w.Len})
		cost += w.Len
	}
	if len(ws) != len(id)-1 {
		return fmt.Errorf("%d wires over %d points is not a tree", len(ws), len(id))
	}
	src, ok := id[serve.Point{X: in.Source().X, Y: in.Source().Y}]
	if !ok {
		return fmt.Errorf("the source is on no wire")
	}
	dist := make([]float64, len(id))
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	stack := []int{src}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range adj[u] {
			if math.IsInf(dist[a.To], 1) {
				dist[a.To] = dist[u] + a.W
				stack = append(stack, a.To)
			}
		}
	}
	for i := 1; i < in.N(); i++ {
		p := in.Point(i)
		v, ok := id[serve.Point{X: p.X, Y: p.Y}]
		if !ok {
			return fmt.Errorf("terminal %d is on no wire", i)
		}
		if math.IsInf(dist[v], 1) {
			return fmt.Errorf("terminal %d is not connected to the source", i)
		}
		if dist[v] > upper+relTol*math.Max(1, upper) {
			return fmt.Errorf("terminal %d has path %g above the bound %g", i, dist[v], upper)
		}
	}
	if !atLeast(cost, 2*mst/3) {
		return fmt.Errorf("cost %g below 2/3 of the MST cost %g", cost, mst)
	}
	return nil
}

// wiresOf renders a Steiner tree as the service does, grid coordinates
// per segment, so a direct build compares against a served answer.
func wiresOf(st *steiner.SteinerTree) []serve.Wire {
	g := st.Grid()
	out := make([]serve.Wire, 0, len(st.Edges()))
	for _, e := range st.Edges() {
		a, b := g.Coord(e.U), g.Coord(e.V)
		out = append(out, serve.Wire{From: serve.Point{X: a.X, Y: a.Y}, To: serve.Point{X: b.X, Y: b.Y}, Len: e.W})
	}
	return out
}

// treeOf turns served edges into a graph.Tree over n nodes.
func treeOf(n int, es []serve.Edge) *graph.Tree {
	t := graph.NewTree(n)
	for _, e := range es {
		t.AddEdge(e.U, e.V, e.W)
	}
	return t
}

func sameEdges(a, b []graph.Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameWires(a, b []serve.Wire) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// digest accumulates a SHA-256 over every tree a run produced, in pool
// order, so two runs of one seed can be compared byte for byte.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) f(vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		d.h.Write(b[:])
	}
}

func (d *digest) edges(es []graph.Edge) {
	d.f(float64(len(es)))
	for _, e := range es {
		d.f(float64(e.U), float64(e.V), e.W)
	}
}

func (d *digest) wires(ws []serve.Wire) {
	d.f(float64(len(ws)))
	for _, w := range ws {
		d.f(w.From.X, w.From.Y, w.To.X, w.To.Y, w.Len)
	}
}

func (d *digest) hex() string { return fmt.Sprintf("%x", d.h.Sum(nil)) }

// edgeSum hashes one tree's edges, to spot a repeated build that
// differs from the first.
func edgeSum(es []graph.Edge) [32]byte {
	d := newDigest()
	d.edges(es)
	var out [32]byte
	copy(out[:], d.h.Sum(nil))
	return out
}

// uniformPoints draws n points uniformly from the extent×extent square.
func uniformPoints(rng *rand.Rand, n int, extent float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * extent, Y: rng.Float64() * extent}
	}
	return pts
}

// parallel calls f(0), ..., f(n-1) from GOMAXPROCS goroutines and
// returns once every call has. The checks run outside the timed phase.
func parallel(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}
