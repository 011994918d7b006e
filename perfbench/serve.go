package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/inst"
	"repro/internal/obs"
	"repro/internal/serve"
)

const (
	// serveClients matches the 2-core host: a closed loop of one client
	// per core keeps both server workers busy without queueing.
	serveClients = 2
	// serveSlots is the length of the request sequence a run cycles
	// through, about one second of traffic. It is far above the
	// instance cache's 32 entries, so a cold net is always evicted
	// before its slot comes round again.
	serveSlots = 4096
	// warmSinks sizes the warm-up net of the set-up.
	warmSinks = 64
	// bkstMaxSinks caps Steiner nets: the Hanan grid is quadratic.
	bkstMaxSinks = 24
)

// sweepEps is the eps_sweep of the sweep requests.
var sweepEps = []float64{0.25, 0.5, 1, 2}

// kinds is the constructor mix; nets take the kinds in turn.
var kinds = []func(*serve.NetRequest){
	func(r *serve.NetRequest) { r.Algo, r.Eps = "bkrus", 0.25 },
	func(r *serve.NetRequest) { r.Algo, r.Eps1, r.Eps2 = "bkruslu", 0.1, 0.5 },
	func(r *serve.NetRequest) { r.Algo = "mst" },
	func(r *serve.NetRequest) { r.Algo, r.Eps = "bkst", 0.25 },
	func(r *serve.NetRequest) { r.Algo, r.EpsSweep = "bkrus", sweepEps },
}

// serveNet is one distinct net of the sequence, with its request body.
type serveNet struct {
	req  serve.NetRequest
	body []byte
}

// serveBench drives an in-process bmstreed over loopback HTTP.
type serveBench struct {
	nets  []*serveNet
	slots []int // net index per sequence slot

	h      http.Handler
	hs     *http.Server
	done   chan struct{}
	url    string
	client *http.Client

	mu   sync.Mutex
	n    int                     // requests issued so far, over every phase
	seen []map[[32]byte]*variant // distinct 200 bodies per slot
}

// variant is one distinct answer body of a slot.
type variant struct {
	body []byte
	ops  int64
}

// serveSequence draws the request mix. Two of every three slots carry
// a fresh cold net; the third re-sends a net from the hot pool, the
// latest cold net of each kind, taking the kinds in turn. A re-sent net
// is at most five requests old, well inside the instance cache's 32
// entries, so a third of the requests hit the cache. Nets take the
// constructor kinds in turn, and their sink counts follow the
// log-uniform distribution on [16, 256] by strata per kind (at stratum
// midpoints, in seeded order), so a seed changes the points and the
// order but hardly the amount of work. The warm-up net, a bkrus net of
// warmSinks sinks, comes last.
func serveSequence(seed int64, slots int) ([]*serveNet, []int, error) {
	seq := make([]int, slots)
	hot := make([]int, len(kinds)) // latest cold net per kind
	cold, resent := 0, 0
	for i := range seq {
		if i%3 == 2 && cold >= len(kinds) {
			seq[i] = hot[resent%len(kinds)]
			resent++
			continue
		}
		seq[i] = cold
		hot[cold%len(kinds)] = cold
		cold++
	}

	rng := rand.New(rand.NewSource(seed))
	nets := make([]*serveNet, 0, cold+1)
	addNet := func(k, sinks int) error {
		req := serve.NetRequest{}
		kinds[k](&req)
		if req.Algo == "bkst" {
			sinks = min(sinks, bkstMaxSinks)
		}
		pts := uniformPoints(rng, sinks+1, extent)
		req.Source = serve.Point{X: pts[0].X, Y: pts[0].Y}
		for _, p := range pts[1:] {
			req.Sinks = append(req.Sinks, serve.Point{X: p.X, Y: p.Y})
		}
		body, err := json.Marshal(serve.BuildRequest{Nets: []serve.NetRequest{req}})
		if err != nil {
			return err
		}
		nets = append(nets, &serveNet{req: req, body: body})
		return nil
	}
	// sizes[k] lists the sink counts of the cold nets of kind k.
	sizes := make([][]int, len(kinds))
	for k := range sizes {
		m := (cold - k + len(kinds) - 1) / len(kinds)
		for _, t := range rng.Perm(m) {
			u := (float64(t) + 0.5) / float64(m)
			sizes[k] = append(sizes[k], int(math.Round(16*math.Pow(16, u))))
		}
	}
	for i := 0; i < cold; i++ {
		if err := addNet(i%len(kinds), sizes[i%len(kinds)][i/len(kinds)]); err != nil {
			return nil, nil, err
		}
	}
	if err := addNet(0, warmSinks); err != nil {
		return nil, nil, err
	}
	return nets, seq, nil
}

// newServeBench generates the sequence, starts serve.New(serve.Config{})
// behind a loopback listener and sends one warm-up request.
func newServeBench(seed int64, slots int) (*serveBench, error) {
	nets, seq, err := serveSequence(seed, slots)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{})
	b := &serveBench{
		nets: nets, slots: seq,
		h:    srv.Handler(),
		done: make(chan struct{}),
		url:  "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: serveClients,
			DisableCompression:  true,
		}},
		seen: make([]map[[32]byte]*variant, len(seq)),
	}
	b.hs = &http.Server{Handler: b.h, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(b.done)
		// Serve returns ErrServerClosed once close shuts it down.
		_ = b.hs.Serve(ln)
	}()
	if _, _, err := b.post(nets[len(nets)-1].body); err != nil {
		b.close()
		return nil, fmt.Errorf("warm-up request: %w", err)
	}
	return b, nil
}

func (b *serveBench) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// A Shutdown error means open connections outlived the timeout;
	// Close below drops them.
	_ = b.hs.Shutdown(ctx)
	b.hs.Close()
	<-b.done
	b.client.CloseIdleConnections()
}

// post sends one request and returns the body of a 200 answer.
func (b *serveBench) post(body []byte) ([]byte, time.Duration, error) {
	start := time.Now()
	resp, err := b.client.Post(b.url+"/v1/build", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, lat, nil
}

// claim hands out the next sequence slot, or false once d has passed,
// every slot has been sent at least once, and the phase that began at
// op first has sent something.
func (b *serveBench) claim(t0 time.Time, d time.Duration, first int) (int64, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if time.Since(t0) >= d && b.n >= len(b.slots) && b.n > first {
		return 0, false
	}
	b.n++
	return int64(b.n - 1), true
}

func (b *serveBench) record(slot int, body []byte) {
	sum := sha256.Sum256(body)
	b.mu.Lock()
	defer b.mu.Unlock()
	m := b.seen[slot]
	if m == nil {
		m = make(map[[32]byte]*variant)
		b.seen[slot] = m
	}
	v := m[sum]
	if v == nil {
		v = &variant{body: body}
		m[sum] = v
	}
	v.ops++
}

// run is the closed loop: serveClients clients, each sending its next
// request when the previous answer is in. Untraced, requests go over
// loopback HTTP. Traced, each request calls the handler in-process (no
// socket) and then replays its net layer by layer.
func (b *serveBench) run(d time.Duration, tr *tracer) phase {
	phs := make([]phase, serveClients)
	recs := make([]*recorder, serveClients)
	if tr != nil {
		for i := range recs {
			recs[i] = tr.recorder()
		}
	}
	times := make([][]opTime, serveClients)
	b.mu.Lock()
	first := b.n
	b.mu.Unlock()
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func(ph *phase, rec *recorder, times *[]opTime) {
			defer wg.Done()
			for {
				op, ok := b.claim(t0, d, first)
				if !ok {
					return
				}
				slot := int(op % int64(len(b.slots)))
				sn := b.nets[b.slots[slot]]
				ph.attempted++
				start := time.Since(t0)
				var body []byte
				var lat time.Duration
				var err error
				if rec == nil {
					body, lat, err = b.post(sn.body)
				} else {
					body, lat, err = b.traced(op, sn, rec, &ph.counts)
				}
				*times = append(*times, opTime{op: op, start: start, end: time.Since(t0), lat: float64(lat) / 1e6, ok: err == nil})
				if err != nil {
					ph.failed++
					ph.errs = append(ph.errs, fmt.Sprintf("slot %d: %v", slot, err))
					continue
				}
				ph.lat = append(ph.lat, float64(lat)/1e6)
				b.record(slot, body)
			}
		}(&phs[w], recs[w], &times[w])
	}
	wg.Wait()
	ph := phs[0]
	for _, p := range phs[1:] {
		ph.merge(p)
	}
	ph.elapsed = time.Since(t0)
	ph.passes = passStats(slices.Concat(times...), len(b.slots))
	return ph
}

// traced is one traced request: JSON decode of the request, the
// handler called in-process, JSON encode of the response, then a
// replay of the net through inst.New, the distance matrix, the engine
// and a fresh edge stream.
func (b *serveBench) traced(op int64, sn *serveNet, rec *recorder, c *layerCounts) ([]byte, time.Duration, error) {
	root := rec.begin("op", op, -1)
	defer rec.end(root)

	s := rec.begin("serve.decode", op, root)
	var req serve.BuildRequest
	err := json.Unmarshal(sn.body, &req)
	rec.end(s)
	if err != nil {
		return nil, 0, err
	}

	hr := httptest.NewRequest(http.MethodPost, "/v1/build", bytes.NewReader(sn.body))
	w := httptest.NewRecorder()
	start := time.Now()
	s = rec.begin("serve.handler", op, root)
	b.h.ServeHTTP(w, hr)
	rec.end(s)
	lat := time.Since(start)
	body := w.Body.Bytes()
	if w.Code != http.StatusOK {
		return nil, 0, fmt.Errorf("status %d: %s", w.Code, bytes.TrimSpace(body))
	}
	var resp serve.BuildResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, 0, err
	}
	s = rec.begin("serve.encode", op, root)
	_, err = json.Marshal(resp)
	rec.end(s)
	if err != nil {
		return nil, 0, err
	}

	if err := replay(op, &sn.req, rec, root, c); err != nil {
		return nil, 0, err
	}
	return body, lat, nil
}

// instanceOf builds the instance a net request describes.
func instanceOf(n *serve.NetRequest) (*inst.Instance, error) {
	sinks := make([]geom.Point, len(n.Sinks))
	for i, p := range n.Sinks {
		sinks[i] = geom.Point{X: p.X, Y: p.Y}
	}
	return inst.New(geom.Point{X: n.Source.X, Y: n.Source.Y}, sinks, geom.Manhattan)
}

func paramsOf(n *serve.NetRequest) engine.Params {
	return engine.Params{Eps: n.Eps, Eps1: n.Eps1, Eps2: n.Eps2}
}

// replay rebuilds one net layer by layer with spans around each call.
func replay(op int64, n *serve.NetRequest, rec *recorder, parent int, c *layerCounts) error {
	s := rec.begin("inst.new", op, parent)
	in, err := instanceOf(n)
	rec.end(s)
	if err != nil {
		return err
	}
	ctor, err := engine.Lookup(n.Algo)
	if err != nil {
		return err
	}
	var dm *geom.DistMatrix
	if ctor.Kind() == engine.Spanning {
		s = rec.begin("geom.distmatrix", op, parent)
		dm = in.DistMatrix()
		rec.end(s)
	}
	reg := obs.NewRegistry()
	p := paramsOf(n)
	p.Obs = reg
	if len(n.EpsSweep) > 0 {
		ps := make([]engine.Params, len(n.EpsSweep))
		for j, eps := range n.EpsSweep {
			ps[j] = p
			ps[j].Eps = eps
		}
		s = rec.begin("engine.sweep", op, parent)
		_, err = engine.Default().Sweep(context.Background(), n.Algo, in, ps)
		rec.end(s)
		if err != nil {
			return err
		}
		c.addCore(reg, int64(len(ps)))
		return nil
	}
	s = rec.begin("engine.build."+n.Algo, op, parent)
	_, err = engine.Build(context.Background(), n.Algo, in, p)
	rec.end(s)
	if err != nil {
		return err
	}
	switch n.Algo {
	case "bkst":
		c.addSteiner(reg)
	case "bkrus", "bkruslu":
		drawn := c.addCore(reg, 1)
		s = rec.begin("graph.stream", op, parent)
		st := graph.NewEdgeStream(dm)
		for i := int64(0); i < drawn; i++ {
			st.Next()
		}
		rec.end(s)
		c.streamDraws++
		c.streamDrawn += drawn
		c.streamLen += int64(st.Len())
	}
	return nil
}

// serveCounters reads the serve-scope counters from GET /metrics.
func (b *serveBench) serveCounters() (map[string]int64, error) {
	w := httptest.NewRecorder()
	b.h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", w.Code)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	out := make(map[string]int64)
	for _, sc := range snap.Scopes {
		if sc.Name == serve.ScopeName {
			for _, c := range sc.Counters {
				out[c.Name] = c.Value
			}
		}
	}
	return out, nil
}

// netCheck is the verdict on one distinct net, computed once.
type netCheck struct {
	err   error
	trees []serve.TreeResult // from a direct engine build
	mst   float64
	in    *inst.Instance
}

// checkNet builds the net directly through the engine, the reference
// every served answer must match.
func checkNet(n *serve.NetRequest) *netCheck {
	nc := &netCheck{}
	nc.in, nc.err = instanceOf(n)
	if nc.err != nil {
		return nc
	}
	if nc.mst, nc.err = mstCost(nc.in); nc.err != nil {
		return nc
	}
	epss := n.EpsSweep
	if len(epss) == 0 {
		epss = []float64{n.Eps}
	}
	for _, eps := range epss {
		p := paramsOf(n)
		p.Eps = eps
		res, err := engine.Build(context.Background(), n.Algo, nc.in, p)
		if err != nil {
			nc.err = fmt.Errorf("direct build: %w", err)
			return nc
		}
		tr := serve.TreeResult{Eps: eps}
		if res.Steiner != nil {
			tr.Wires = wiresOf(res.Steiner)
		} else {
			for _, e := range res.Tree.Edges {
				tr.Edges = append(tr.Edges, serve.Edge{U: e.U, V: e.V, W: e.W})
			}
		}
		nc.trees = append(nc.trees, tr)
	}
	// The checks read distances from the oracle; holding every net's
	// distance matrix until the end would swell the run's RSS.
	nc.in.Release()
	return nc
}

// checkBody verifies one served answer against the net and its direct
// build.
func checkBody(n *serve.NetRequest, nc *netCheck, body []byte) error {
	if nc.err != nil {
		return nc.err
	}
	var resp serve.BuildResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if len(resp.Results) != 1 || resp.Results[0].Algo != n.Algo {
		return errors.New("answer does not describe the requested net")
	}
	trees := resp.Results[0].Trees
	if len(trees) != len(nc.trees) {
		return fmt.Errorf("%d trees, want %d", len(trees), len(nc.trees))
	}
	in := nc.in
	for j, t := range trees {
		want := nc.trees[j]
		if t.Eps != want.Eps {
			return fmt.Errorf("tree %d has eps %g, want %g", j, t.Eps, want.Eps)
		}
		if want.Wires != nil {
			if err := checkWires(in, t.Wires, in.Bound(t.Eps), nc.mst); err != nil {
				return fmt.Errorf("tree %d: %w", j, err)
			}
			if !sameWires(t.Wires, want.Wires) {
				return fmt.Errorf("tree %d differs from a direct engine.Build", j)
			}
			continue
		}
		tree := treeOf(in.N(), t.Edges)
		b := core.Bounds{Upper: math.Inf(1)}
		switch n.Algo {
		case "bkrus":
			b = core.UpperOnly(in, t.Eps)
		case "bkruslu":
			b = core.LowerUpper(in, n.Eps1, n.Eps2)
		}
		if err := checkSpanning(in, tree, b, nc.mst); err != nil {
			return fmt.Errorf("tree %d: %w", j, err)
		}
		if math.Abs(t.Cost-tree.Cost()) > relTol*math.Max(1, t.Cost) {
			return fmt.Errorf("tree %d reports cost %g, its edges sum to %g", j, t.Cost, tree.Cost())
		}
		if !sameEdges(tree.Edges, treeOf(in.N(), want.Edges).Edges) {
			return fmt.Errorf("tree %d differs from a direct engine.Build", j)
		}
	}
	return nil
}

// check verifies every distinct answer. All answers of one slot must
// carry the same trees (they differ at most in cache_hit).
func (b *serveBench) check() checkReport {
	checks := make([]*netCheck, len(b.nets))
	for slot, vs := range b.seen {
		if len(vs) > 0 {
			checks[b.slots[slot]] = &netCheck{}
		}
	}
	parallel(len(checks), func(ni int) {
		if checks[ni] != nil {
			checks[ni] = checkNet(&b.nets[ni].req)
		}
	})
	slotErrs := make([]error, len(b.seen))
	parallel(len(b.seen), func(slot int) {
		ni := b.slots[slot]
		for _, v := range b.seen[slot] {
			if slotErrs[slot] = checkBody(&b.nets[ni].req, checks[ni], v.body); slotErrs[slot] != nil {
				return
			}
		}
	})

	var rep checkReport
	d := newDigest()
	var cost, mst float64
	for slot, vs := range b.seen {
		if len(vs) == 0 {
			continue
		}
		nr, nc := &b.nets[b.slots[slot]].req, checks[b.slots[slot]]
		if err := slotErrs[slot]; err != nil {
			for _, v := range vs {
				rep.failedOps += v.ops
			}
			rep.errs = append(rep.errs, fmt.Sprintf("slot %d (%s, %d sinks): %v", slot, nr.Algo, len(nr.Sinks), err))
		}
		d.f(float64(slot))
		for _, t := range nc.trees {
			d.f(t.Eps)
			if t.Wires != nil {
				d.wires(t.Wires)
				continue
			}
			tree := treeOf(nc.in.N(), t.Edges)
			d.edges(tree.Edges)
			cost += tree.Cost()
			mst += nc.mst
		}
	}
	rep.digest = d.hex()
	if mst > 0 {
		rep.wirelength = cost / mst
	}
	return rep
}
