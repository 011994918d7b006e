// Command perfbench is the repository's benchmark: it runs one named
// workload against the program's public layers, checks every tree it
// gets back, and prints the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run). README.md in this directory explains
// the workloads, the metrics and the tracing method; BENCHMARK.json at
// the repository root lists them. Build and run it with run.sh:
//
//	bash perfbench/run.sh --workload serve_mixed --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/steiner"
)

// bench is one workload after set-up.
type bench interface {
	// run drives the workload for at least d, and until every net of
	// its pool has been served once over the bench's lifetime. A
	// non-nil tracer records spans around each call into a layer.
	run(d time.Duration, tr *tracer) phase
	// check verifies every output produced so far.
	check() checkReport
	close()
}

// phase is what one timed loop measured.
type phase struct {
	attempted, failed int64 // failed: errors and non-200 answers
	errs              []string
	lat               []float64 // ms per successful op
	elapsed           time.Duration
	counts            layerCounts // traced phases only
	passes            []passStat  // whole passes over the pool
}

// passStat is one pass over the pool.
type passStat struct {
	ops     int
	seconds float64
	lat     []float64 // sorted ms of the pass's successful ops
}

// opTime is when one op ran, relative to the phase start.
type opTime struct {
	op         int64
	start, end time.Duration
	lat        float64 // ms
	ok         bool
}

// passStats summarizes each pass over the pool (or request sequence)
// that lies wholly inside the phase. Every pass does the same work, so
// the passes are repeats of one measurement, and their median shrugs
// off a pass that a neighbour on the host slowed down. A pass also
// weighs every net of the pool once, whatever the run's length.
func passStats(ops []opTime, pool int) []passStat {
	byPass := make(map[int64][]opTime)
	for _, o := range ops {
		byPass[o.op/int64(pool)] = append(byPass[o.op/int64(pool)], o)
	}
	var out []passStat
	for _, ops := range byPass {
		if len(ops) != pool {
			continue
		}
		first, last := ops[0].start, ops[0].end
		var lat []float64
		for _, o := range ops {
			first, last = min(first, o.start), max(last, o.end)
			if o.ok {
				lat = append(lat, o.lat)
			}
		}
		sort.Float64s(lat)
		out = append(out, passStat{ops: pool, seconds: (last - first).Seconds(), lat: lat})
	}
	return out
}

func (p *phase) merge(q phase) {
	p.attempted += q.attempted
	p.failed += q.failed
	p.errs = append(p.errs, q.errs...)
	p.lat = append(p.lat, q.lat...)
	p.counts.add(q.counts)
}

func (p *phase) rate() float64 { return float64(p.attempted) / p.elapsed.Seconds() }

// checkReport is the verdict of the checks after a timed phase.
type checkReport struct {
	failedOps  int64 // ops whose output failed a check
	errs       []string
	digest     string  // SHA-256 of every distinct tree, in pool order
	wirelength float64 // spanning-tree cost over MST cost, same nets
}

// layerCounts sums the work counters the traced ops read from each
// layer's obs scope and from the geometry index.
type layerCounts struct {
	coreBuilds, edgesExamined, merges, cycleRej, boundRej, witnessScans int64
	streamBatches, streamFallbacks                                      int64
	streamDraws, streamDrawn, streamLen                                 int64
	steinerBuilds, candidates, embeds, collisions                       int64
	indexBuilds, indexProbes, octantCandidates                          int64
}

func (c *layerCounts) add(o layerCounts) {
	c.coreBuilds += o.coreBuilds
	c.edgesExamined += o.edgesExamined
	c.merges += o.merges
	c.cycleRej += o.cycleRej
	c.boundRej += o.boundRej
	c.witnessScans += o.witnessScans
	c.streamBatches += o.streamBatches
	c.streamFallbacks += o.streamFallbacks
	c.streamDraws += o.streamDraws
	c.streamDrawn += o.streamDrawn
	c.streamLen += o.streamLen
	c.steinerBuilds += o.steinerBuilds
	c.candidates += o.candidates
	c.embeds += o.embeds
	c.collisions += o.collisions
	c.indexBuilds += o.indexBuilds
	c.indexProbes += o.indexProbes
	c.octantCandidates += o.octantCandidates
}

// addCore adds the core scope of one op's registry, which served the
// given number of BKRUS builds, and returns its edges examined.
func (c *layerCounts) addCore(reg *obs.Registry, builds int64) int64 {
	sc := reg.Scope(core.ScopeName)
	examined := sc.Counter(core.CtrEdgesExamined).Load()
	c.coreBuilds += builds
	c.edgesExamined += examined
	c.merges += sc.Counter(core.CtrMerges).Load()
	c.cycleRej += sc.Counter(core.CtrCycleRejections).Load()
	c.boundRej += sc.Counter(core.CtrBoundRejections).Load()
	c.witnessScans += sc.Counter(core.CtrWitnessScans).Load()
	c.streamBatches += sc.Counter(core.CtrStreamBatches).Load()
	c.streamFallbacks += sc.Counter(core.CtrStreamFallbacks).Load()
	return examined
}

// addSteiner adds the steiner scope of one bkst build's registry.
func (c *layerCounts) addSteiner(reg *obs.Registry) {
	sc := reg.Scope(steiner.ScopeName)
	c.steinerBuilds++
	c.candidates += sc.Counter(steiner.CtrCandidatesExamined).Load()
	c.embeds += sc.Counter(steiner.CtrEmbeds).Load()
	c.collisions += sc.Counter(steiner.CtrEmbedCollisions).Load()
}

// sizes scales a workload; the benchmark runs at fullSizes, the tests
// at smaller ones.
type sizes struct {
	serveSlots  int
	sparsePool  int
	sparseSinks int
}

var fullSizes = sizes{serveSlots: serveSlots, sparsePool: sparsePool, sparseSinks: sparseSinks}

// workload names a traffic mix and how to set it up.
type workload struct {
	// setups is how many times a run sets the workload up; setup_s is
	// the median, and the last set-up is the one measured.
	setups int
	// tail is the tail percentile reported; 0 means the highest
	// percentile with at least ten samples beyond it.
	tail  float64
	setup func(seed int64, sz sizes) (bench, error)
}

var workloads = map[string]workload{
	"serve_mixed": {setups: 5, tail: 99, setup: func(seed int64, sz sizes) (bench, error) {
		return newServeBench(seed, sz.serveSlots)
	}},
	"sparse_slack": {setups: 3, setup: func(seed int64, sz sizes) (bench, error) {
		return newSparseBench(seed, 2, sz.sparsePool, sz.sparseSinks)
	}},
	"sparse_tight": {setups: 3, setup: func(seed int64, sz sizes) (bench, error) {
		return newSparseBench(seed, 0.5, sz.sparsePool, sz.sparseSinks)
	}},
}

// metric is one reported value.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"-"` // printed beside the value, not in the JSON
}

// report is one run's outcome.
type report struct {
	correct           bool
	attempted, failed int64
	metrics           []metric
	digest            string
	errs              []string
	spans             []span
}

// execute sets the workload up, runs it and checks it.
func execute(name string, seed int64, d time.Duration, traced bool, sz sizes) (*report, error) {
	w, ok := workloads[name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
	}
	var b bench
	setupS := make([]float64, w.setups)
	for i := range setupS {
		start := time.Now()
		nb, err := w.setup(seed, sz)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS[i] = time.Since(start).Seconds()
		if b != nil {
			b.close()
		}
		b = nb
	}
	defer b.close()

	rep := &report{}
	if !traced {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ph := b.run(d, nil)
		runtime.ReadMemStats(&m1)
		// Peak RSS up to the end of the timed phase: the checks after it
		// build reference trees of their own.
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return nil, fmt.Errorf("getrusage: %w", err)
		}
		chk := b.check()
		rep.finish(ph, chk)
		if len(ph.passes) == 0 {
			return nil, errors.New("the timed phase holds no complete pass")
		}
		rep.metrics = endToEnd(rep, ph, chk, w.tail, setupS, m1.TotalAlloc-m0.TotalAlloc, ru.Maxrss)
		return rep, nil
	}

	// Traced run: an untraced phase, then a traced one of equal length.
	// The untraced phase is the baseline of the tracing overhead and,
	// on serve_mixed, of the transport time.
	half := d / 2
	phA := b.run(half, nil)
	var before map[string]int64
	sb, isServe := b.(*serveBench)
	if isServe {
		var err error
		if before, err = sb.serveCounters(); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tr := newTracer()
	phB := b.run(half, tr)
	runtime.ReadMemStats(&m1)
	var after map[string]int64
	if isServe {
		var err error
		if after, err = sb.serveCounters(); err != nil {
			return nil, err
		}
	}
	chk := b.check()
	all := phA
	all.merge(phB)
	rep.finish(all, chk)
	rep.spans = tr.spans()
	sort.Float64s(phA.lat)
	rep.metrics = layerMetrics(phA, phB, summarize(rep.spans), before, after, m0, m1)
	return rep, nil
}

// finish folds the checks into the run's tallies.
func (r *report) finish(ph phase, chk checkReport) {
	r.attempted = ph.attempted
	r.failed = ph.failed + chk.failedOps
	r.correct = r.failed == 0
	r.digest = chk.digest
	r.errs = append(ph.errs, chk.errs...)
}

// endToEnd derives the end-to-end metrics of an untraced run. Each
// timing is the median over the passes of the run.
func endToEnd(rep *report, ph phase, chk checkReport, tailPct float64, setupS []float64, alloc uint64, maxRSSKB int64) []metric {
	n := len(ph.passes)
	secs, p50s, tails := make([]float64, n), make([]float64, n), make([]float64, n)
	var tailNote string
	for i, p := range ph.passes {
		secs[i] = p.seconds
		p50s[i] = quantile(p.lat, 0.5)
		tails[i], tailNote = tailOf(p.lat, tailPct)
	}
	ok := rep.attempted - rep.failed
	pass := ph.passes[0].ops
	return []metric{
		{Name: "setup_s", Value: median(setupS), Unit: "s", Note: fmt.Sprintf("median of %d set-ups", len(setupS))},
		{Name: "ops_per_s", Value: float64(pass) / median(secs) * float64(ok) / float64(rep.attempted), Unit: "1/s",
			Note: fmt.Sprintf("median over %d passes of %d ops; %d verified of %d in %.2f s", n, pass, ok, rep.attempted, ph.elapsed.Seconds())},
		{Name: "latency_p50_ms", Value: median(p50s), Unit: "ms", Note: fmt.Sprintf("median over %d passes", n)},
		{Name: "latency_tail_ms", Value: median(tails), Unit: "ms", Note: fmt.Sprintf("median over %d passes of the %s", n, tailNote)},
		{Name: "success_rate", Value: float64(ok) / float64(rep.attempted), Unit: "ratio",
			Note: fmt.Sprintf("error_rate %g = %d failed of %d attempted", float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted)},
		{Name: "alloc_mb_per_op", Value: float64(alloc) / float64(rep.attempted) / (1 << 20), Unit: "MB", Note: "runtime.MemStats TotalAlloc delta, whole process"},
		{Name: "max_rss_mb", Value: float64(maxRSSKB) / 1024, Unit: "MB", Note: "getrusage, set-up and timed phase"},
		{Name: "wirelength_ratio", Value: chk.wirelength, Unit: "ratio", Note: "spanning-tree cost over MST cost of the same nets"},
	}
}

// layerMetrics derives the per-layer metrics of a traced run. A layer
// the workload does not reach reports 0.
func layerMetrics(a, b phase, st map[string]*spanStats, before, after map[string]int64, m0, m1 runtime.MemStats) []metric {
	get := func(name string) spanStats {
		if s := st[name]; s != nil {
			return *s
		}
		return spanStats{}
	}
	per := func(n, d int64) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / float64(d)
	}
	c := b.counts
	handler := get("serve.handler")
	var handlerP50, handlerP99, transport float64
	if handler.count > 0 {
		handlerP50 = quantile(handler.durMS, 0.5)
		handlerP99 = quantile(handler.durMS, 0.99)
		transport = quantile(a.lat, 0.5) - handlerP50
	}
	hits := after["cache_hits"] - before["cache_hits"]
	lookups := hits + after["cache_misses"] - before["cache_misses"]

	bk, bklu, stream := get("engine.build.bkrus"), get("engine.build.bkruslu"), get("graph.stream")
	var scan float64
	if stream.count > 0 {
		scan = float64(bk.total+bklu.total-stream.total) / float64(stream.count) / 1e6
	}
	overhead := 0.0
	if a.attempted > 0 && b.attempted > 0 {
		overhead = (a.rate() - b.rate()) / a.rate() * 100
	}
	return []metric{
		{Name: "serve.handler_p50_ms", Value: handlerP50, Unit: "ms", Note: fmt.Sprintf("n=%d in-process handler calls", handler.count)},
		{Name: "serve.handler_p99_ms", Value: handlerP99, Unit: "ms"},
		{Name: "serve.transport_ms", Value: transport, Unit: "ms", Note: "untraced end-to-end p50 minus handler p50"},
		{Name: "serve.decode_ms", Value: get("serve.decode").meanMS(), Unit: "ms"},
		{Name: "serve.encode_ms", Value: get("serve.encode").meanMS(), Unit: "ms"},
		{Name: "serve.cache_hit_ratio", Value: per(hits, lookups), Unit: "ratio", Note: fmt.Sprintf("%d hits of %d lookups; one net per request, so also the share of requests that hit", hits, lookups)},
		{Name: "serve.cache_lookups", Value: float64(lookups), Unit: "count"},
		{Name: "serve.shed", Value: float64(after["shed"]), Unit: "count"},
		{Name: "serve.timeouts", Value: float64(after["timeouts"]), Unit: "count"},
		{Name: "serve.bad_requests", Value: float64(after["bad_requests"]), Unit: "count"},
		{Name: "engine.build_ms.bkrus", Value: bk.meanMS(), Unit: "ms", Note: fmt.Sprintf("n=%d", bk.count)},
		{Name: "engine.build_ms.bkruslu", Value: bklu.meanMS(), Unit: "ms", Note: fmt.Sprintf("n=%d", bklu.count)},
		{Name: "engine.build_ms.mst", Value: get("engine.build.mst").meanMS(), Unit: "ms"},
		{Name: "engine.build_ms.bkst", Value: get("engine.build.bkst").meanMS(), Unit: "ms"},
		{Name: "engine.sweep_ms", Value: get("engine.sweep").meanMS(), Unit: "ms", Note: fmt.Sprintf("%d-value sweeps", len(sweepEps))},
		{Name: "inst.new_ms", Value: get("inst.new").meanMS(), Unit: "ms"},
		{Name: "geom.distmatrix_ms", Value: get("geom.distmatrix").meanMS(), Unit: "ms"},
		{Name: "geom.index_ms", Value: get("geom.index").meanMS(), Unit: "ms"},
		{Name: "geom.index_probes", Value: per(c.indexProbes, c.indexBuilds), Unit: "count", Note: "grid cells probed per index build"},
		{Name: "geom.octant_candidates", Value: per(c.octantCandidates, c.indexBuilds), Unit: "count", Note: "candidates tested per index build"},
		{Name: "graph.stream_ms", Value: stream.meanMS(), Unit: "ms", Note: "fresh stream drawn to the build's edges_examined"},
		{Name: "graph.edges_drawn_share", Value: per(c.streamDrawn, c.streamLen), Unit: "ratio", Note: fmt.Sprintf("%d drawn of %d stream edges", c.streamDrawn, c.streamLen)},
		{Name: "graph.stream_len", Value: per(c.streamLen, c.streamDraws), Unit: "count", Note: "edges per stream"},
		{Name: "graph.stream_batches", Value: per(c.streamBatches, c.coreBuilds), Unit: "count"},
		{Name: "graph.stream_fallback_sorts", Value: per(c.streamFallbacks, c.coreBuilds), Unit: "count"},
		{Name: "core.scan_ms", Value: scan, Unit: "ms", Note: "single bkrus/bkruslu build minus its stream draw"},
		{Name: "core.builds", Value: float64(c.coreBuilds), Unit: "count", Note: "BKRUS builds the core counters cover, sweep cells each"},
		{Name: "core.edges_examined", Value: per(c.edgesExamined, c.coreBuilds), Unit: "count"},
		{Name: "core.merges", Value: per(c.merges, c.coreBuilds), Unit: "count"},
		{Name: "core.cycle_rejections", Value: per(c.cycleRej, c.coreBuilds), Unit: "count"},
		{Name: "core.bound_rejections", Value: per(c.boundRej, c.coreBuilds), Unit: "count"},
		{Name: "core.witness_scans", Value: per(c.witnessScans, c.coreBuilds), Unit: "count"},
		{Name: "core.accept_ratio", Value: per(c.merges, c.edgesExamined), Unit: "ratio", Note: fmt.Sprintf("%d merges of %d edges examined", c.merges, c.edgesExamined)},
		{Name: "core.witness_scans_per_merge", Value: per(c.witnessScans, c.merges), Unit: "ratio"},
		{Name: "steiner.builds", Value: float64(c.steinerBuilds), Unit: "count"},
		{Name: "steiner.candidates_examined", Value: per(c.candidates, c.steinerBuilds), Unit: "count"},
		{Name: "steiner.embeds", Value: per(c.embeds, c.steinerBuilds), Unit: "count"},
		{Name: "steiner.embed_collisions", Value: per(c.collisions, c.steinerBuilds), Unit: "count"},
		{Name: "steiner.embed_ratio", Value: per(c.embeds, c.candidates), Unit: "ratio", Note: fmt.Sprintf("%d embeds of %d candidates", c.embeds, c.candidates)},
		{Name: "runtime.gc_cycles_per_op", Value: per(int64(m1.NumGC-m0.NumGC), b.attempted), Unit: "count"},
		{Name: "runtime.gc_pause_ms", Value: per(int64(m1.PauseTotalNs-m0.PauseTotalNs), b.attempted) / 1e6, Unit: "ms", Note: "stop-the-world pause per op"},
		{Name: "trace.overhead_pct", Value: overhead, Unit: "%", Note: fmt.Sprintf("untraced %.2f ops/s, traced %.2f ops/s", a.rate(), b.rate())},
	}
}

// median of unsorted values.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile interpolates linearly between the order statistics of
// sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// tailOf returns the tail latency of sorted and a note naming its
// percentile and sample count. pct > 0 asks for that percentile;
// pct == 0 for the highest order statistic with at least ten samples
// beyond it.
func tailOf(sorted []float64, pct float64) (float64, string) {
	n := len(sorted)
	if n == 0 {
		return 0, "no samples"
	}
	if pct > 0 {
		return quantile(sorted, pct/100), fmt.Sprintf("p%g of %d samples", pct, n)
	}
	k := n - 11
	if k < 0 {
		return sorted[n-1], fmt.Sprintf("max of %d samples (fewer than 11)", n)
	}
	return sorted[k], fmt.Sprintf("p%.1f of %d samples (10 beyond it)", 100*float64(k+1)/float64(n), n)
}

// host describes the machine and build a result was taken on.
func host(commit string) map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commit,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: serve_mixed, sparse_slack or sparse_tight")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measured seconds")
		traced  = flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
		commit  = flag.String("commit", "unknown", "commit the program was built from")
	)
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	d := time.Duration(*seconds * float64(time.Second))
	rep, err := execute(*name, *seed, d, *traced == 1, fullSizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	h := host(*commit)
	if *traced == 1 {
		path := fmt.Sprintf(".bench_build/trace-%s-seed%d.jsonl", *name, *seed)
		hdr := map[string]any{"workload": *name, "seed": *seed, "host": h}
		if err := writeSpans(path, hdr, rep.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(1)
		}
		fmt.Printf("spans: %d written to %s\n", len(rep.spans), path)
	}
	for _, e := range rep.errs {
		fmt.Println("FAILED:", e)
	}
	for _, m := range rep.metrics {
		fmt.Printf("%-14s %-28s %14.6g %-6s %s\n", *name, m.Name, m.Value, m.Unit, m.Note)
	}
	fmt.Printf("digest: %s %s seed=%d\n", *name, rep.digest, *seed)
	hj, err := json.Marshal(h)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("host: %s\n", hj)
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, make(map[string]metric)}
	for _, m := range rep.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %g\n", m.Name, m.Value)
			os.Exit(1)
		}
		out.Metrics[m.Name] = m
	}
	js, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(js))
}
