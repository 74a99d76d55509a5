package main

import (
	"context"
	"errors"
	"slices"
	"sync"
	"time"

	"oasis"
	"oasis/internal/poolstore"
	"oasis/internal/session"
)

// The traced run rebuilds a workload in-process from the public
// constructors and times the calls into each layer, in three passes over
// the same pool, seeds and batch size:
//
//	A  HTTP through a span middleware around (*server.Server).Handler(), with
//	   the WAL behind a timing session.Journal decorator (half the time);
//	B  direct Session.ProposeCtx / CommitBatchCtx and Manager create/delete,
//	   with the same decorator (a quarter);
//	C  the oasis.Sampler alone: ProposeBatch / CommitLabelTerms (a quarter).
//
// Self times are differences of the passes' means.

// passDurations splits the measured time over the three passes.
func passDurations(seconds float64) (a, b, c time.Duration) {
	total := time.Duration(seconds * float64(time.Second))
	return total / 2, total / 4, total / 4
}

// tracedClient is a client whose requests become spans.
func tracedClient(addr string, tr *tracer) *client {
	c := newClient(addr)
	c.tr = tr
	return c
}

// scrapes is how many /metrics and /v1/stats reads follow pass A, so every
// server workload reports their cost.
const scrapes = 5

func scrapeAll(r *run, cl *client) {
	for range scrapes {
		r.op("scrape", 2)
		if err := cl.scrape(); err != nil {
			r.fail("metrics scrape: %v", err)
		}
		if _, err := cl.stats(); err != nil {
			r.fail("stats: %v", err)
		}
	}
}

// layerInputs are the measurements behind the per-layer metrics, beyond the
// tracer's spans.
type layerInputs struct {
	a0, a1   snapshot // counters at the start and end of pass A
	labelsA  int64
	labelsC  int64
	stratify time.Duration
	replay   replayResult
	offline  *offlineReport
}

func traceLabel(r *run, durable bool) error {
	sz := r.sizes
	tr := newTracer()
	pool := genPool(sz.labelPool, mix(r.seed, 1))
	trueF := pool.trueF()
	encoded, err := poolstore.Encode(pool.scores, pool.preds)
	if err != nil {
		return err
	}
	cfg := stackConfig{shards: 2}
	if durable {
		dir, err := r.dir("wal")
		if err != nil {
			return err
		}
		cfg = stackConfig{shards: 1, walDir: dir}
	}
	st, err := newStack(tr, cfg)
	if err != nil {
		return err
	}
	defer st.close()
	poolID, err := st.put(encoded)
	if err != nil {
		return err
	}
	durA, durB, durC := passDurations(r.seconds)
	var in layerInputs

	tr.setPhase("A")
	in.a0 = st.snapshot()
	cl := tracedClient(st.addr, tr)
	defer cl.close()
	slotsA := make([]*labelSlot, sz.labelSessions)
	for i := range slotsA {
		slotsA[i] = &labelSlot{prefix: "l", idx: i}
		r.op("create", 1)
		if err := cl.create(labelConfig(r.seed, slotsA[i], poolID, sz.labelBudget)); err != nil {
			return err
		}
	}
	deadline := time.Now().Add(durA)
	loads := make([]*labelLoad, connections)
	parallel(func(c int) {
		loads[c] = &labelLoad{}
		labelConn(r, tracedClient(st.addr, tr), durable, poolID, pool.truth, trueF, ownedBy(slotsA, c), loads[c], deadline)
	})
	for _, l := range loads {
		in.labelsA += l.labels
	}
	scrapeAll(r, cl)
	in.a1 = st.snapshot()

	tr.setPhase("B")
	slotsB := make([]*labelSlot, sz.labelSessions)
	for i := range slotsB {
		slotsB[i] = &labelSlot{prefix: "b", idx: i}
		r.op("session.create", 1)
		if _, err := st.mgr.Create(labelConfig(r.seed, slotsB[i], poolID, sz.labelBudget)); err != nil {
			return err
		}
	}
	deadline = time.Now().Add(durB)
	firstB := make([][]int, connections)
	parallel(func(c int) {
		firstB[c] = labelDirect(r, tr, st.mgr, poolID, pool.truth, ownedBy(slotsB, c), deadline)
	})

	tr.setPhase("C")
	p, err := oasis.NewPool(pool.scores, pool.preds, oasis.CalibratedScores)
	if err != nil {
		return err
	}
	seedOf := func(idx, gen int) uint64 { return mix(r.seed, 2, uint64(idx), uint64(gen)) }
	firstC, err := samplerPasses(r, tr, &in, p, pool.truth, sz.labelSessions, seedOf, sz.labelBudget, sz.labelBatch, durC)
	if err != nil {
		return err
	}
	checkFirstBatch(r, firstB, firstC)

	tr.setPhase("end")
	var ids []string
	for _, s := range append(slotsA, slotsB...) {
		ids = append(ids, s.id())
	}
	want := liveStatuses(r, st.mgr, ids)
	if err := st.close(); err != nil {
		return err
	}
	if durable {
		if in.replay, err = replayCopy(r, tr, cfg, want, []string{poolID}); err != nil {
			return err
		}
	} else if err := coldAcquire(r, tr, st.mgr, st.pools, want, []string{poolID}); err != nil {
		return err
	}
	layerMetrics(r, tr, in)
	return tr.writeSpans(r.spanFile, r.workload, r.seed)
}

func traceChurn(r *run) error {
	sz := r.sizes
	tr := newTracer()
	pools, err := genChurnPools(sz, r.seed)
	if err != nil {
		return err
	}
	budget, err := churnBudget(r, pools[0])
	if err != nil {
		return err
	}
	dir, err := r.dir("wal")
	if err != nil {
		return err
	}
	every, err := time.ParseDuration(sz.churnCompact)
	if err != nil {
		return err
	}
	cfg := stackConfig{shards: 2, walDir: dir, memBudget: budget, compactEvery: every}
	st, err := newStack(tr, cfg)
	if err != nil {
		return err
	}
	defer st.close()
	var poolIDs []string
	for _, p := range pools {
		if p.id, err = st.put(p.encoded); err != nil {
			return err
		}
		poolIDs = append(poolIDs, p.id)
	}
	durA, durB, durC := passDurations(r.seconds)
	var in layerInputs

	tr.setPhase("A")
	in.a0 = st.snapshot()
	cl := tracedClient(st.addr, tr)
	defer cl.close()
	for c := range connections {
		r.op("create", 1)
		if err := cl.create(churnConfig("c", r.seed, c, 0, pools[churnPoolFor(sz, c, 0)].id, sz.churnBudget)); err != nil {
			return err
		}
	}
	deadline := time.Now().Add(durA)
	loads := make([]*churnLoad, connections)
	parallel(func(c int) {
		loads[c] = &churnLoad{}
		churnConn(r, tracedClient(st.addr, tr), c, pools, loads[c], deadline)
	})
	for _, l := range loads {
		in.labelsA += l.labels
	}
	scrapeAll(r, cl)
	in.a1 = st.snapshot()

	tr.setPhase("B")
	deadline = time.Now().Add(durB)
	firstB := make([][]int, connections)
	parallel(func(c int) {
		firstB[c] = churnDirect(r, tr, st.mgr, c, pools, deadline)
	})

	tr.setPhase("C")
	p, err := oasis.NewPool(pools[0].input.scores, pools[0].input.preds, oasis.CalibratedScores)
	if err != nil {
		return err
	}
	seedOf := func(c, k int) uint64 { return mix(r.seed, 3, uint64(c), uint64(k)) }
	firstC, err := samplerPasses(r, tr, &in, p, pools[0].input.truth, connections, seedOf, sz.churnBudget, sz.churnBatch, durC)
	if err != nil {
		return err
	}
	checkFirstBatch(r, firstB, firstC)

	tr.setPhase("end")
	if err := st.close(); err != nil {
		return err
	}
	if in.replay, err = replayCopy(r, tr, cfg, nil, poolIDs); err != nil {
		return err
	}
	layerMetrics(r, tr, in)
	return tr.writeSpans(r.spanFile, r.workload, r.seed)
}

func traceOffline(r *run) error {
	sz := r.sizes
	tr := newTracer()
	// No session layer here: the harness gets pass B's time too.
	durA, durB, durC := passDurations(r.seconds)
	tr.setPhase("A")
	rep, built, err := offlinePaper(sz, r.seed, (durA + durB).Seconds(), tr)
	if err != nil {
		return err
	}
	checkOffline(r, rep)
	var in layerInputs
	in.offline = rep

	tr.setPhase("C")
	b := built[0]
	truth := make([]bool, len(b.TruthProb))
	for i, p := range b.TruthProb {
		truth[i] = p >= 0.5
	}
	seedOf := func(idx, gen int) uint64 { return mix(r.seed, 6, uint64(idx), uint64(gen)) }
	if _, err := samplerPasses(r, tr, &in, b.Pool, truth, connections, seedOf, sz.offlineBudget[0], sz.labelBatch, durC); err != nil {
		return err
	}
	layerMetrics(r, tr, in)
	return tr.writeSpans(r.spanFile, r.workload, r.seed)
}

// parallel runs f once per connection and waits for all of them.
func parallel(f func(c int)) {
	var wg sync.WaitGroup
	for c := range connections {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(c)
		}()
	}
	wg.Wait()
}

func ownedBy(slots []*labelSlot, c int) []*labelSlot {
	var mine []*labelSlot
	for _, s := range slots {
		if s.idx%connections == c {
			mine = append(mine, s)
		}
	}
	return mine
}

// checkFirstBatch checks that the session layer (pass B) drew exactly the
// pairs the bare sampler (pass C) drew for the same seed: connection 0's
// first batch.
func checkFirstBatch(r *run, b, c [][]int) {
	r.op("check", 1)
	if len(b[0]) == 0 || !slices.Equal(b[0], c[0]) {
		r.fail("first batch differs between the session layer %v and the sampler %v", b[0], c[0])
	}
}

// labelDirect is pass B of a labelling workload: one connection's sessions
// driven through the session layer directly. It returns the first batch the
// connection's first session drew.
func labelDirect(r *run, tr *tracer, mgr *session.Manager, poolID string, truth []bool, mine []*labelSlot, deadline time.Time) []int {
	sz := r.sizes
	ctx := context.Background()
	var first []int
	for time.Now().Before(deadline) {
		for _, s := range mine {
			id := s.id()
			sess, err := mgr.Get(id)
			if err != nil {
				r.fail("session %s: %v", id, err)
				return first
			}
			trip := tr.newID()
			t0 := time.Now()
			var props []session.Proposal
			tr.call("session", "session.propose", id, trip, func() { props, err = sess.ProposeCtx(ctx, sz.labelBatch) })
			r.op("session.propose", 1)
			if errors.Is(err, session.ErrBudgetExhausted) {
				if got := sess.Status().LabelsCommitted; got != s.acked || got != sz.labelBudget {
					r.fail("session %s exhausted with %d labels, acknowledged %d", id, got, s.acked)
				}
				r.op("session.delete", 1)
				tr.call("session", "session.delete", id, trip, func() { err = mgr.Delete(id) })
				if err != nil {
					r.fail("delete %s: %v", id, err)
				}
				s.gen, s.acked = s.gen+1, 0
				r.op("session.create", 1)
				tr.call("session", "session.create", s.id(), trip, func() {
					_, err = mgr.CreateCtx(ctx, labelConfig(r.seed, s, poolID, sz.labelBudget))
				})
				if err != nil {
					r.fail("create %s: %v", s.id(), err)
					return first
				}
				continue
			}
			if err != nil || len(props) == 0 {
				r.fail("propose %s: %d pairs, %v", id, len(props), err)
				continue
			}
			pairs, labels := answer(props, truth)
			if first == nil && s.idx == mine[0].idx && s.gen == 0 {
				first = pairs
			}
			var res []session.CommitResult
			tr.call("session", "session.commit", id, trip, func() { res, err = sess.CommitBatchCtx(ctx, pairs, labels) })
			r.op("session.commit", 1)
			if err != nil || countCommitted(res) != len(pairs) {
				r.fail("commit %s: %d of %d committed, %v", id, countCommitted(res), len(pairs), err)
				continue
			}
			s.acked += len(pairs)
			tr.record(span{ID: trip, Trace: trip, Layer: "client", Name: "direct.round_trip", Start: t0, End: time.Now()})
		}
	}
	return first
}

// churnDirect is pass B of the churn workload: one connection's session
// cycles driven through the manager and session directly.
func churnDirect(r *run, tr *tracer, mgr *session.Manager, c int, pools []*churnPool, deadline time.Time) []int {
	sz := r.sizes
	ctx := context.Background()
	var first []int
	for k := 0; time.Now().Before(deadline); k++ {
		p := pools[churnPoolFor(sz, c, k)]
		cfg := churnConfig("d", r.seed, c, k, p.id, sz.churnBudget)
		trip := tr.newID()
		t0 := time.Now()
		var (
			sess *session.Session
			err  error
		)
		r.op("session.create", 1)
		tr.call("session", "session.create", cfg.ID, trip, func() { sess, err = mgr.CreateCtx(ctx, cfg) })
		if err != nil {
			r.fail("create %s: %v", cfg.ID, err)
			return first
		}
		for range sz.churnBudget / sz.churnBatch {
			var props []session.Proposal
			tr.call("session", "session.propose", cfg.ID, trip, func() { props, err = sess.ProposeCtx(ctx, sz.churnBatch) })
			r.op("session.propose", 1)
			if err != nil || len(props) != sz.churnBatch {
				r.fail("propose %s: %d pairs, %v", cfg.ID, len(props), err)
				break
			}
			pairs, labels := answer(props, p.input.truth)
			if first == nil && k == 0 {
				first = pairs
			}
			var res []session.CommitResult
			tr.call("session", "session.commit", cfg.ID, trip, func() { res, err = sess.CommitBatchCtx(ctx, pairs, labels) })
			r.op("session.commit", 1)
			if err != nil || countCommitted(res) != len(pairs) {
				r.fail("commit %s: %d of %d committed, %v", cfg.ID, countCommitted(res), len(pairs), err)
				break
			}
		}
		if _, err := sess.Propose(1); !errors.Is(err, session.ErrBudgetExhausted) {
			r.fail("session %s not exhausted at its budget: %v", cfg.ID, err)
		}
		r.op("session.delete", 1)
		tr.call("session", "session.delete", cfg.ID, trip, func() { err = mgr.Delete(cfg.ID) })
		if err != nil {
			r.fail("delete %s: %v", cfg.ID, err)
		}
		tr.record(span{ID: trip, Trace: trip, Layer: "client", Name: "direct.session_cycle", Start: t0, End: time.Now()})
	}
	return first
}

func answer(props []session.Proposal, truth []bool) ([]int, []bool) {
	pairs := make([]int, len(props))
	labels := make([]bool, len(props))
	for i, p := range props {
		pairs[i], labels[i] = p.Pair, truth[p.Pair]
	}
	return pairs, labels
}

func countCommitted(res []session.CommitResult) int {
	n := 0
	for _, c := range res {
		if c == session.Committed {
			n++
		}
	}
	return n
}

// samplerPasses is pass C: it stratifies p once, timed, and then on each
// connection samplers indexed like the workload's sessions (slot i on
// connection i % connections) propose and commit batches of n until their
// budget, then are replaced by the next generation. It records the
// stratify time and labels committed in in, and returns each connection's
// first batch.
func samplerPasses(r *run, tr *tracer, in *layerInputs, p *oasis.Pool, truth []bool, slots int, seedOf func(idx, gen int) uint64, budget, n int, d time.Duration) ([][]int, error) {
	var (
		strat *oasis.Stratification
		err   error
	)
	in.stratify = tr.timed("sampler", "sampler.stratify", func() { strat, err = oasis.Stratify(p, oasis.Options{}) })
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(d)
	first := make([][]int, connections)
	labels := make([]int64, connections)
	parallel(func(c int) {
		first[c], labels[c] = samplerPass(r, tr, p, strat, truth, c, slots, seedOf, budget, n, deadline)
	})
	for _, n := range labels {
		in.labelsC += n
	}
	return first, nil
}

func samplerPass(r *run, tr *tracer, p *oasis.Pool, strat *oasis.Stratification, truth []bool, c, slots int, seedOf func(idx, gen int) uint64, budget, n int, deadline time.Time) ([]int, int64) {
	type slot struct {
		idx, gen int
		s        *oasis.Sampler
	}
	build := func(sl *slot) bool {
		var err error
		tr.timed("sampler", "sampler.build", func() {
			sl.s, err = oasis.NewSamplerStratified(p, oasis.Options{Seed: seedOf(sl.idx, sl.gen)}, strat)
		})
		if err != nil {
			r.fail("sampler %d/%d: %v", sl.idx, sl.gen, err)
		}
		return err == nil
	}
	var mine []*slot
	for i := c; i < slots; i += connections {
		sl := &slot{idx: i}
		if !build(sl) {
			return nil, 0
		}
		mine = append(mine, sl)
	}
	var (
		first  []int
		labels int64
	)
	for time.Now().Before(deadline) {
		for _, sl := range mine {
			k := min(n, budget-sl.s.LabelsCommitted())
			if k <= 0 {
				sl.gen++
				if !build(sl) {
					return first, labels
				}
				continue
			}
			var (
				pairs []int
				err   error
			)
			tr.timed("sampler", "sampler.propose", func() { pairs, err = sl.s.ProposeBatch(k) })
			r.op("sampler.propose", 1)
			if err != nil {
				r.fail("sampler propose: %v", err)
				return first, labels
			}
			if first == nil && sl == mine[0] && sl.gen == 0 {
				first = append([]int(nil), pairs...)
			}
			tr.timed("sampler", "sampler.commit", func() {
				for _, pair := range pairs {
					if _, err = sl.s.CommitLabelTerms(pair, truth[pair]); err != nil {
						return
					}
				}
			})
			r.op("sampler.commit", 1)
			if err != nil {
				r.fail("sampler commit: %v", err)
				return first, labels
			}
			labels += int64(len(pairs))
		}
	}
	return first, labels
}

// layerMetrics derives every per-layer metric from the traced run. A layer
// the workload does not exercise reports 0.
func layerMetrics(r *run, tr *tracer, in layerInputs) {
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	total := func(phase, name string) float64 {
		_, t := tr.stat(phase, name)
		return float64(t)
	}
	count := func(phase, name string) float64 {
		n, _ := tr.stat(phase, name)
		return float64(n)
	}
	// diff is a self time: outer minus inner, when both were measured.
	diff := func(outer, inner float64) float64 {
		if outer == 0 || inner == 0 {
			return 0
		}
		return outer - inner
	}

	// server (pass A against pass B)
	reqs := count("A", "client.propose") + count("A", "client.labels")
	clientT := total("A", "client.propose") + total("A", "client.labels")
	handlerT := total("A", "server.propose") + total("A", "server.labels")
	hProp, hLab := tr.meanUs("A", "server.propose"), tr.meanUs("A", "server.labels")
	bProp, bCommit := tr.meanUs("B", "session.propose"), tr.meanUs("B", "session.commit")
	r.metric("server.transport_us", ratio(clientT-handlerT, reqs)/1e3)
	r.metric("server.propose_us", hProp)
	r.metric("server.labels_us", hLab)
	r.metric("server.self_us", diff(hProp+hLab, bProp+bCommit))
	r.metric("server.create_us", tr.meanUs("A", "server.create"))
	r.metric("server.scrape_metrics_ms", tr.meanUs("*", "server.metrics")/1e3)
	r.metric("server.stats_ms", tr.meanUs("*", "server.stats")/1e3)
	r.metric("server.gc_pause_ms_per_s", ratio(float64(in.a1.gcPause-in.a0.gcPause)/1e6, in.a1.at.Sub(in.a0.at).Seconds()))
	var served float64
	for _, route := range []string{"create", "delete", "propose", "labels", "estimate", "metrics", "stats"} {
		served += count("A", "server."+route)
	}
	r.metric("server.requests", served)

	// session (pass B against the WAL appends under it and pass C)
	trips := count("B", "session.commit")
	walB := total("B", "wal.append.propose") + total("B", "wal.append.commit") + total("B", "wal.append.release")
	samplerC := tr.meanUs("C", "sampler.propose") + tr.meanUs("C", "sampler.commit")
	r.metric("session.propose_us", bProp)
	r.metric("session.commit_us", bCommit)
	r.metric("session.self_us", diff(bProp+bCommit, ratio(walB, trips)/1e3+samplerC))
	r.metric("session.create_ms", tr.meanUs("B", "session.create")/1e3)
	r.metric("session.delete_us", tr.meanUs("B", "session.delete"))

	// sampler (pass C, and the offline harness)
	r.metric("sampler.propose_us", tr.meanUs("C", "sampler.propose"))
	r.metric("sampler.commit_us_per_label", ratio(total("C", "sampler.commit"), float64(in.labelsC))/1e3)
	r.metric("sampler.stratify_ms", float64(in.stratify)/1e6)
	r.metric("sampler.build_ms", tr.meanUs("C", "sampler.build")/1e3)
	for _, name := range offlineDatasets {
		var runUs, absErr, build float64
		if in.offline != nil {
			runUs, absErr, build = in.offline.RunUsLabel[name], in.offline.AbsErr[name], in.offline.BuildS[name]
		}
		r.metric("sampler.run_us_per_label."+name, runUs)
		r.metric("sampler.abs_err."+name, absErr)
		r.metric("erbench.build_pool_s."+name, build)
	}
	r.metric("erbench.final_error_ms", tr.meanUs("*", "erbench.final_error")/1e3)

	// wal (pass A, the replayed copy and the compactions)
	for _, t := range []string{"commit", "propose", "create", "delete"} {
		r.metric("wal.append_us."+t, tr.meanUs("A", "wal.append."+t))
	}
	dw := func(f func(s snapshot) uint64) float64 { return float64(f(in.a1) - f(in.a0)) }
	r.metric("wal.syncs_per_label", ratio(dw(func(s snapshot) uint64 { return s.wal.Syncs }), float64(in.labelsA)))
	r.metric("wal.bytes_per_record", ratio(dw(func(s snapshot) uint64 { return s.wal.BytesAppended }), dw(func(s snapshot) uint64 { return s.wal.RecordsAppended })))
	r.metric("wal.replay_s", in.replay.seconds)
	r.metric("wal.replay_events", float64(in.replay.events))
	r.metric("wal.compact_ms", tr.meanUs("*", "wal.compact")/1e3)
	r.metric("wal.compactions", count("*", "wal.compact"))

	// poolstore (pass A's counter deltas and the probes)
	creates := count("A", "server.create")
	r.metric("poolstore.put_ms", tr.meanUs("*", "poolstore.put")/1e3)
	r.metric("poolstore.cold_acquire_ms", tr.meanUs("*", "poolstore.acquire")/1e3)
	r.metric("poolstore.loads_per_create", ratio(dw(func(s snapshot) uint64 { return s.pools.Loads }), creates))
	r.metric("poolstore.evictions_per_create", ratio(dw(func(s snapshot) uint64 { return s.pools.Evictions }), creates))
	hits := dw(func(s snapshot) uint64 { return s.pools.StrataCacheHits })
	misses := dw(func(s snapshot) uint64 { return s.pools.StrataCacheMisses })
	r.metric("poolstore.strata_hit_ratio", ratio(hits, hits+misses))
	r.metric("poolstore.resident_mb", float64(in.a1.pools.ResidentBytes)/(1<<20))
}
