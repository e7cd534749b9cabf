package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"caqe"
	"caqe/internal/baseline"
	"caqe/internal/cluster"
	"caqe/internal/contract"
	"caqe/internal/datagen"
	"caqe/internal/metrics"
	"caqe/internal/partition"
	"caqe/internal/preference"
	"caqe/internal/region"
	"caqe/internal/run"
	"caqe/internal/skycube"
	"caqe/internal/tuple"
	"caqe/internal/workload"
)

// batchSpec describes one batch workload. Each run draws several datasets
// from the seed and executes them in turn, so one unusual dataset moves a
// run's figures less.
type batchSpec struct {
	rows     int
	dist     datagen.Distribution
	sel      float64
	datasets int
	shards   int  // 0 runs single-node through caqe.Run, otherwise cluster.Run
	totals   bool // hand the oracle's result counts to the engine
	build    func() (*workload.Workload, error)
}

func batchSpecFor(name string, smoke bool) batchSpec {
	var s batchSpec
	switch name {
	case "batch-anti":
		// The paper's 11-query d=4 workload: C2 contracts, priorities
		// rising with the number of skyline dimensions.
		s = batchSpec{rows: 1000, dist: datagen.AntiCorrelated, sel: 0.05, datasets: 12,
			build: func() (*workload.Workload, error) {
				return workload.Benchmark(workload.BenchmarkConfig{
					NumQueries: 11, Dims: 4, Priority: workload.HighDimsHigh,
					NewContract: func(int) contract.Contract { return contract.C2() },
				})
			}}
	case "sharded-indep":
		// The same 11 preferences with contracts rotating through C1–C5.
		// Deadlines sit at three quarters, and quota intervals at a tenth,
		// of the roughly 400 virtual seconds a run takes at this scale.
		s = batchSpec{rows: 3000, dist: datagen.Independent, sel: 0.02, datasets: 16, shards: 2, totals: true,
			build: func() (*workload.Workload, error) {
				classes := []func() contract.Contract{
					func() contract.Contract { return contract.C1(300) },
					contract.C2,
					func() contract.Contract { return contract.C3(300) },
					func() contract.Contract { return contract.C4(0.1, 40) },
					func() contract.Contract { return contract.C5(0.1, 40) },
				}
				return workload.Benchmark(workload.BenchmarkConfig{
					NumQueries: 11, Dims: 4, Priority: workload.UniformPriority,
					NewContract: func(i int) contract.Contract { return classes[i%len(classes)]() },
				})
			}}
	}
	if smoke {
		s.rows, s.datasets = s.rows/5, 1
	}
	return s
}

// dataset is one generated input pair with its oracle answer.
type dataset struct {
	r, t    *tuple.Relation
	oracle  *run.Report
	totals  []int
	genS    float64
	oracleS float64

	// Of the first execution; every later one must have the same digest.
	digest        string
	satisfaction  float64
	endTime       float64 // virtual seconds
	firstV, lastV float64 // virtual seconds; means over queries, see virtualProgress
}

// execution is the client's view of one complete run of the workload.
type execution struct {
	wall        time.Duration
	first, last []time.Duration // per query, from the start of the run; 0 if none
	rep         *run.Report
}

// deliveryClock records when each query received its first and last
// result; install onEmit as the run's OnEmit hook.
type deliveryClock struct {
	t0          time.Time
	first, last []time.Duration
	also        func() // optional extra work per delivery (layer stamps)
}

func newDeliveryClock(queries int) *deliveryClock {
	return &deliveryClock{first: make([]time.Duration, queries), last: make([]time.Duration, queries)}
}

func (c *deliveryClock) onEmit(e run.Emission) {
	d := time.Since(c.t0)
	if c.first[e.Query] == 0 {
		c.first[e.Query] = d
	}
	c.last[e.Query] = d
	if c.also != nil {
		c.also()
	}
}

// shardTrace is the layer breakdown of one traced execution.
type shardTrace struct {
	layers                      layerTimes
	decisions, defers, discards int
	split, shardMax, merge      time.Duration
	skew                        float64
	mergeCmps                   int64
	candsIn, candsOut           int
	engine                      metrics.Counters // engine work, without the merge
}

type batchBench struct {
	cfg  config
	spec batchSpec
	w    *workload.Workload
	data []*dataset
	out  *outcome
}

func runBatch(cfg config) (*outcome, error) {
	spec := batchSpecFor(cfg.workload, cfg.smoke)
	w, err := spec.build()
	if err != nil {
		return nil, err
	}
	b := &batchBench{cfg: cfg, spec: spec, w: w, out: newOutcome()}
	if err := b.setup(); err != nil {
		return nil, err
	}
	if cfg.traced {
		return b.out, b.tracedRun()
	}
	return b.out, b.untracedRun()
}

// setup generates every dataset and its oracle answer, timing each.
func (b *batchBench) setup() error {
	for k := 0; k < b.spec.datasets; k++ {
		t0 := time.Now()
		r, t, err := datagen.Pair(b.spec.rows, 4, b.spec.dist, []float64{b.spec.sel}, b.cfg.seed*1_000_003+int64(k))
		if err != nil {
			return fmt.Errorf("generating dataset %d: %w", k, err)
		}
		t1 := time.Now()
		oracle, totals, err := baseline.GroundTruthReport(b.w, r, t)
		if err != nil {
			return fmt.Errorf("oracle for dataset %d: %w", k, err)
		}
		oracleS := time.Since(t1).Seconds()
		b.data = append(b.data, &dataset{r: r, t: t, oracle: resultKeys(b.w, oracle), totals: totals,
			genS: t1.Sub(t0).Seconds(), oracleS: oracleS})
	}
	return nil
}

// resultKeys copies the oracle's answer without its output points, which
// share storage with the oracle's whole join and would keep it alive for
// the run; run.SameResults compares only the (rid, tid) keys.
func resultKeys(w *workload.Workload, oracle *run.Report) *run.Report {
	keys := run.NewReport(oracle.Strategy, w, nil)
	for _, ems := range oracle.PerQuery {
		for _, e := range ems {
			keys.Emit(run.Emission{Query: e.Query, RID: e.RID, TID: e.TID})
		}
	}
	return keys
}

func (b *batchBench) engineTotals(d *dataset) []int {
	if b.spec.totals {
		return d.totals
	}
	return nil
}

// execute runs the workload once on dataset d, untraced.
func (b *batchBench) execute(d *dataset) (execution, error) {
	dc := newDeliveryClock(len(b.w.Queries))
	var rep *run.Report
	var err error
	dc.t0 = time.Now()
	if b.spec.shards == 0 {
		rep, err = caqe.Run(b.w, d.r, d.t, caqe.WithTotals(b.engineTotals(d)), caqe.WithOnEmit(dc.onEmit))
	} else {
		rep, _, err = cluster.Run(b.w, d.r, d.t, cluster.Options{
			Shards: b.spec.shards, Totals: b.engineTotals(d), OnEmit: dc.onEmit,
		})
	}
	wall := time.Since(dc.t0)
	return execution{wall: wall, first: dc.first, last: dc.last, rep: rep}, err
}

// executeTraced runs the workload once on dataset d with a wall-stamping
// tracer attached. cluster.Run leaves its shard executors untraced, so a
// sharded execution is rebuilt here from the same public pieces:
// ShardMap.Partition, one traced engine run per shard (concurrently, as
// cluster.Run does), and cluster.Merge per query.
func (b *batchBench) executeTraced(d *dataset) (execution, shardTrace, error) {
	dc := newDeliveryClock(len(b.w.Queries))
	if b.spec.shards == 0 {
		tr := newLayerTracer()
		dc.also = tr.emitted
		dc.t0 = time.Now()
		rep, err := caqe.Run(b.w, d.r, d.t, caqe.WithTotals(b.engineTotals(d)),
			caqe.WithOnEmit(dc.onEmit), caqe.WithTracer(tr))
		wall := time.Since(dc.t0)
		st := shardTrace{layers: tr.attribute(), decisions: tr.decisions, defers: tr.defers, discards: tr.discards}
		if rep != nil {
			st.engine = rep.Counters
		}
		return execution{wall: wall, first: dc.first, last: dc.last, rep: rep}, st, err
	}

	var st shardTrace
	dc.t0 = time.Now()
	m, err := cluster.NewShardMap(b.spec.shards, cluster.PartitionRange)
	if err != nil {
		return execution{}, st, err
	}
	parts, table := m.Partition(d.r)
	st.split = time.Since(dc.t0)

	n := len(parts)
	reps := make([]*run.Report, n)
	errs := make([]error, n)
	tracers := make([]*layerTracer, n)
	walls := make([]time.Duration, n)
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		tracers[s] = newLayerTracer()
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			t0 := time.Now()
			tr := tracers[s]
			reps[s], errs[s] = caqe.Run(b.w, parts[s], d.t, caqe.WithTracer(tr),
				caqe.WithOnEmit(func(run.Emission) { tr.emitted() }))
			walls[s] = time.Since(t0)
		}(s)
	}
	wg.Wait()
	maxEnd := 0.0
	var total metrics.Counters
	var sumWall time.Duration
	for s := 0; s < n; s++ {
		if errs[s] != nil {
			return execution{}, st, fmt.Errorf("shard %d: %w", s, errs[s])
		}
		total.Add(reps[s].Counters)
		maxEnd = math.Max(maxEnd, reps[s].EndTime)
		st.layers.add(tracers[s].attribute())
		st.decisions += tracers[s].decisions
		st.defers += tracers[s].defers
		st.discards += tracers[s].discards
		sumWall += walls[s]
		if walls[s] > st.shardMax {
			st.shardMax = walls[s]
		}
	}
	st.skew = ratio(float64(st.shardMax)*float64(n), float64(sumWall))
	st.engine = total

	// Gather and merge exactly as cluster.Run does.
	mergeStart := time.Now()
	rep := run.NewReport("CAQE", b.w, b.engineTotals(d))
	rep.OnEmit = dc.onEmit
	clock := metrics.NewClock()
	clock.Advance(maxEnd * metrics.VirtualSecond)
	var merged []cluster.Candidate
	for qi := range b.w.Queries {
		byShard := make([][]cluster.Candidate, n)
		for s, srep := range reps {
			cands := make([]cluster.Candidate, 0, len(srep.PerQuery[qi]))
			for _, e := range srep.PerQuery[qi] {
				e.RID = table[s][e.RID]
				cands = append(cands, cluster.Candidate{Shard: s, Emission: e})
			}
			byShard[s] = cands
		}
		kern := preference.NewKernel(b.w.Queries[qi].Pref)
		surv, ms := cluster.Merge(&kern, byShard, clock, nil, "CAQE", qi)
		st.mergeCmps += ms.Cmps
		st.candsIn += ms.CandsIn
		st.candsOut += ms.CandsOut
		merged = append(merged, surv...)
	}
	sort.SliceStable(merged, func(i, j int) bool {
		a, c := merged[i], merged[j]
		switch {
		case a.Time != c.Time:
			return a.Time < c.Time
		case a.Shard != c.Shard:
			return a.Shard < c.Shard
		case a.RID != c.RID:
			return a.RID < c.RID
		case a.TID != c.TID:
			return a.TID < c.TID
		}
		return a.Query < c.Query
	})
	for _, c := range merged {
		rep.Emit(c.Emission)
	}
	total.Add(clock.Counters())
	rep.Finish(clock.Now()/metrics.VirtualSecond, total)
	st.merge = time.Since(mergeStart)
	wall := time.Since(dc.t0)
	return execution{wall: wall, first: dc.first, last: dc.last, rep: rep}, st, nil
}

// check verifies one execution's report: the oracle's result sets, and the
// same digest as every earlier execution of the dataset.
func (b *batchBench) check(d *dataset, e execution, label string) {
	if ok, diff := run.SameResults(e.rep, d.oracle); !ok {
		b.out.problem("%s: results differ from the oracle: %s", label, diff)
	}
	dg := reportDigest(e.rep)
	if d.digest == "" {
		d.digest = dg
		d.satisfaction = e.rep.AvgSatisfaction()
		d.endTime = e.rep.EndTime
		d.firstV, d.lastV = virtualProgress(e.rep)
	} else if dg != d.digest {
		b.out.problem("%s: report digest %s differs from an earlier execution's %s", label, dg[:12], d.digest[:12])
	}
}

// virtualProgress is the mean over queries of the virtual time at which
// each query received its first result and its last. A mean rather than a
// median: with eleven queries a median is one query's figure, and jumps
// from one dataset to the next.
func virtualProgress(rep *run.Report) (first, last float64) {
	var fs, ls []float64
	for _, ems := range rep.PerQuery {
		if len(ems) == 0 {
			continue
		}
		fs = append(fs, ems[0].Time)
		ls = append(ls, ems[len(ems)-1].Time)
	}
	return mean(fs), mean(ls)
}

// runStats accumulates execution timings per dataset. Percentiles are
// taken per dataset and then averaged over the datasets, so each dataset
// weighs the same and a run's figure does not jump between datasets.
type runStats struct {
	cycles             int
	walls, ttfr, qdone [][]float64 // [dataset][sample], seconds
}

func newRunStats(datasets int) *runStats {
	return &runStats{
		walls: make([][]float64, datasets),
		ttfr:  make([][]float64, datasets),
		qdone: make([][]float64, datasets),
	}
}

func (s *runStats) add(k int, e execution) {
	s.walls[k] = append(s.walls[k], e.wall.Seconds())
	for qi := range e.first {
		if e.first[qi] == 0 {
			continue
		}
		s.ttfr[k] = append(s.ttfr[k], e.first[qi].Seconds())
		s.qdone[k] = append(s.qdone[k], e.last[qi].Seconds())
	}
}

// perDataset is the q-quantile of each dataset's samples, averaged.
func perDataset(samples [][]float64, q float64) float64 {
	var qs []float64
	for _, xs := range samples {
		qs = append(qs, quantile(xs, q))
	}
	return mean(qs)
}

// cycle executes every dataset once, traced or not, checking each report.
// Past the deadline it stops early, unless s has no complete cycle yet, so
// a run overshoots its budget by at most one execution. Each execution
// starts from a collected heap, so the garbage the previous one left is
// not collected on its time.
func (b *batchBench) cycle(s *runStats, traced bool, tt *[]shardTrace, deadline time.Time) error {
	for k, d := range b.data {
		if s.cycles > 0 && time.Now().After(deadline) {
			break
		}
		var e execution
		var err error
		runtime.GC()
		if traced {
			var st shardTrace
			e, st, err = b.executeTraced(d)
			*tt = append(*tt, st)
		} else {
			e, err = b.execute(d)
		}
		b.out.attempted++
		if err != nil {
			return fmt.Errorf("dataset %d: %w", k, err)
		}
		b.check(d, e, fmt.Sprintf("dataset %d (traced=%v)", k, traced))
		s.add(k, e)
	}
	s.cycles++
	return nil
}

// untracedRun executes the datasets for the budget, checking every report.
// Its figures are set-up time, peak memory and the virtual-clock figures
// of the reports, which every execution of a dataset repeats exactly; the
// wall-clock times of these executions move with the shared host's speed
// and are reported by the traced run instead (wall.*).
func (b *batchBench) untracedRun() error {
	s := newRunStats(len(b.data))
	deadline := time.Now().Add(b.cfg.budget)
	for s.cycles == 0 || time.Now().Before(deadline) {
		if err := b.cycle(s, false, nil, deadline); err != nil {
			return err
		}
	}
	var setup, sat, end, firstV, lastV []float64
	for _, d := range b.data {
		setup = append(setup, d.genS+d.oracleS)
		sat = append(sat, d.satisfaction)
		end = append(end, d.endTime)
		firstV = append(firstV, d.firstV)
		lastV = append(lastV, d.lastV)
	}
	v := b.out.values
	v["setup_s"] = median(setup)
	v["ttfr_virtual_s"] = mean(firstV)
	v["query_virtual_s"] = mean(lastV)
	v["virtual_end_s"] = mean(end)
	v["avg_satisfaction"] = mean(sat)
	v["peak_rss_mb"] = selfPeakRSSMB()
	return nil
}

// tracedRun alternates untraced and traced cycles for the budget, so the
// tracing overhead is measured under the same conditions, then times the
// planning layers through direct calls.
func (b *batchBench) tracedRun() error {
	plain, traced := newRunStats(len(b.data)), newRunStats(len(b.data))
	var tt []shardTrace
	deadline := time.Now().Add(b.cfg.budget)
	for traced.cycles == 0 || time.Now().Before(deadline) {
		if err := b.cycle(plain, false, nil, deadline); err != nil {
			return err
		}
		if err := b.cycle(traced, true, &tt, deadline); err != nil {
			return err
		}
	}

	var gen, orc []float64
	for _, d := range b.data {
		gen = append(gen, d.genS)
		orc = append(orc, d.oracleS)
	}
	v := b.out.values
	v["datagen.gen_s"] = median(gen)
	v["baseline.oracle_s"] = median(orc)
	v["wall.run_p50_s"] = perDataset(plain.walls, 0.5)
	v["wall.ttfr_p50_s"] = perDataset(plain.ttfr, 0.5)
	v["wall.query_p50_s"] = perDataset(plain.qdone, 0.5)
	v["trace.overhead_frac"] = ratio(perDataset(traced.walls, 0.5), perDataset(plain.walls, 0.5)) - 1

	// Layer times and event counts: mean per traced execution.
	var lt layerTimes
	var dec, def, dis, split, shardMax, merge, skew, mcmps, cin, cout float64
	for _, st := range tt {
		lt.add(st.layers)
		dec += float64(st.decisions)
		def += float64(st.defers)
		dis += float64(st.discards)
		split += st.split.Seconds()
		shardMax += st.shardMax.Seconds()
		merge += st.merge.Seconds()
		skew += st.skew
		mcmps += float64(st.mergeCmps)
		cin += float64(st.candsIn)
		cout += float64(st.candsOut)
	}
	n := float64(len(tt))
	v["core.plan_s"] = lt.plan.Seconds() / n
	v["join.join_s"] = lt.join.Seconds() / n
	v["skycube.dominance_s"] = lt.dominance.Seconds() / n
	v["run.emit_s"] = lt.emit.Seconds() / n
	v["core.schedule_s"] = lt.schedule.Seconds() / n
	v["core.decisions"] = dec / n
	v["core.discards"] = dis / n
	v["core.defer_frac"] = ratio(def, dec+def)
	if b.spec.shards > 0 {
		v["cluster.shard_split_s"] = split / n
		v["cluster.shard_max_s"] = shardMax / n
		v["cluster.shard_skew"] = skew / n
		v["cluster.merge_s"] = merge / n
		v["cluster.merge_cmps"] = mcmps / n
		v["cluster.merge_survivor_frac"] = ratio(cout, cin)
	}

	// Engine operation counters, mean per traced execution; a sharded
	// run's coordinator merge comparisons are reported apart.
	var cmps, probes, results, emitted float64
	for _, st := range tt {
		cmps += float64(st.engine.SkylineCmps)
		probes += float64(st.engine.JoinProbes)
		results += float64(st.engine.JoinResults)
		emitted += float64(st.engine.TuplesEmitted)
	}
	v["skycube.skyline_cmps"] = cmps / n
	v["skycube.cmps_per_join_result"] = ratio(cmps, results)
	v["join.probes"] = probes / n
	v["join.results"] = results / n
	v["join.hit_frac"] = ratio(results, probes)
	v["run.emissions"] = emitted / n

	return b.probeLayers()
}

// probeLayers times the planning layers through direct calls on each
// dataset (each shard's slice of R for a sharded workload), as the engine
// builds them: partitioning both inputs, the output-space build and the
// min-max cuboid. Each is the median of a few repetitions; figures are
// summed over shards and averaged over datasets.
func (b *batchBench) probeLayers() error {
	const reps = 3
	var partS, spaceS, cuboidS, cells, regions, pairs float64
	for _, d := range b.data {
		rs := []*tuple.Relation{d.r}
		if b.spec.shards > 0 {
			m, err := cluster.NewShardMap(b.spec.shards, cluster.PartitionRange)
			if err != nil {
				return err
			}
			rs, _ = m.Partition(d.r)
		}
		for _, r := range rs {
			var pt, bt, ct []float64
			var space *region.Space
			var rcells, tcells []*partition.Cell
			for i := 0; i < reps; i++ {
				t0 := time.Now()
				var err error
				if rcells, err = partition.Partition(r, partition.DefaultOptions(r.Len(), 24)); err != nil {
					return err
				}
				if tcells, err = partition.Partition(d.t, partition.DefaultOptions(d.t.Len(), 24)); err != nil {
					return err
				}
				t1 := time.Now()
				if space, err = region.BuildSpace(b.w, rcells, tcells, region.Options{GridResolution: 64}, metrics.NewClock()); err != nil {
					return err
				}
				t2 := time.Now()
				if _, err = skycube.BuildCuboid(b.w.Prefs()); err != nil {
					return err
				}
				pt = append(pt, t1.Sub(t0).Seconds())
				bt = append(bt, t2.Sub(t1).Seconds())
				ct = append(ct, time.Since(t2).Seconds())
			}
			partS += median(pt)
			spaceS += median(bt)
			cuboidS += median(ct)
			cells += float64(len(rcells) + len(tcells))
			regions += float64(len(space.Regions))
			pairs += float64(len(rcells) * len(tcells))
		}
	}
	k := float64(len(b.data))
	v := b.out.values
	v["partition.partition_s"] = partS / k
	v["partition.cells"] = cells / k
	v["region.build_space_s"] = spaceS / k
	v["region.regions"] = regions / k
	v["region.alive_frac"] = ratio(regions, pairs)
	v["skycube.build_cuboid_s"] = cuboidS / k
	return nil
}

// reportDigest fingerprints everything a report delivered: every emission
// in delivery order per query (ids, output point, virtual time), the
// operation counters and the end time.
func reportDigest(rep *run.Report) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for qi, ems := range rep.PerQuery {
		put(uint64(qi))
		put(uint64(len(ems)))
		for _, e := range ems {
			put(uint64(e.RID))
			put(uint64(e.TID))
			put(math.Float64bits(e.Time))
			for _, x := range e.Out {
				put(math.Float64bits(x))
			}
		}
	}
	c := rep.Counters
	for _, x := range []int64{c.JoinProbes, c.JoinResults, c.SkylineCmps, c.CellOps,
		c.TuplesEmitted, c.RegionsDone, c.RegionsPruned, c.CuboidSubspace} {
		put(uint64(x))
	}
	put(math.Float64bits(rep.EndTime))
	return hex.EncodeToString(h.Sum(nil))
}
