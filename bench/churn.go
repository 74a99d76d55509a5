package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"oasis"
	"oasis/internal/poolstore"
	"oasis/internal/session"
)

// churnPool is one of the session-churn workload's large pools.
type churnPool struct {
	input   poolInput
	encoded []byte
	id      string
}

func genChurnPools(sz sizes, seed uint64) ([]*churnPool, error) {
	pools := make([]*churnPool, sz.churnPools)
	for i := range pools {
		in := genPool(sz.churnPairs, mix(seed, 10, uint64(i)))
		enc, err := poolstore.Encode(in.scores, in.preds)
		if err != nil {
			return nil, err
		}
		pools[i] = &churnPool{input: in, encoded: enc}
	}
	return pools, nil
}

// churnFit is how many churn pools the pool-memory budget holds.
const churnFit = 2

// churnBudget is the pool-memory budget of the churn server: churnFit times
// what one churn pool with its cached stratification costs the pool store,
// measured by storing the pool and creating one session on it in-process.
func churnBudget(r *run, p *churnPool) (int64, error) {
	dir, err := r.dir("calibrate")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	store, err := poolstore.Open(dir)
	if err != nil {
		return 0, err
	}
	info, _, err := store.PutEncoded(p.encoded)
	if err != nil {
		return 0, err
	}
	mgr := session.NewManager(session.ManagerOptions{Pools: store, Diag: quietDiag})
	if _, err := mgr.Create(session.Config{PoolID: info.ID, Calibrated: true, Options: oasis.Options{Seed: 1}}); err != nil {
		return 0, err
	}
	perPool := store.Stats().ResidentBytes
	r.note("pool_resident_bytes", perPool)
	return perPool * churnFit, nil
}

// churnPoolFor is the pool of connection c's k-th session: each connection
// owns its share of the pools and moves to the next one with every session.
// The budget holds only the two pools in use, so the pool a create moves to
// has been evicted and loads cold, however far apart the connections run.
func churnPoolFor(sz sizes, c, k int) int {
	per := sz.churnPools / connections
	return c*per + k%per
}

func churnServerArgs(sz sizes, dir string, budget int64) []string {
	return []string{
		"-wal", filepath.Join(dir, "wal"), "-fsync", "always", "-compact-every", sz.churnCompact,
		"-shards", "2", "-pool-mem-budget", fmt.Sprint(budget),
	}
}

func churnConfig(prefix string, seed uint64, c, k int, poolID string, budget int) session.Config {
	return session.Config{
		ID: fmt.Sprintf("%s%d-%d", prefix, c, k), PoolID: poolID, Calibrated: true, Budget: budget,
		Options: oasis.Options{Seed: mix(seed, 3, uint64(c), uint64(k))},
	}
}

// churnLoad is what one connection of the churn workload measured.
type churnLoad struct {
	creates  latencies
	deletes  latencies
	sessions int64
	labels   int64
}

// runChurn is the end-to-end run of session-churn: short sessions created by
// pool reference on four large pools that do not all fit the pool store's
// memory budget, each labelled to its small budget and deleted.
func runChurn(r *run) error {
	sz := r.sizes
	pools, err := genChurnPools(sz, r.seed)
	if err != nil {
		return err
	}
	budget, err := churnBudget(r, pools[0])
	if err != nil {
		return err
	}
	r.note("pool_mem_budget", budget)

	var (
		srv    *child
		setups []float64
	)
	for rep := range sz.setupReps {
		dir, err := r.dir(fmt.Sprintf("setup-%d", rep))
		if err != nil {
			return err
		}
		t0 := time.Now()
		c, err := startServer(r.serverBin, churnServerArgs(sz, dir, budget)...)
		if err != nil {
			return err
		}
		cl := newClient(c.addr)
		for _, p := range pools {
			if p.id, err = cl.uploadPool(p.encoded); err != nil {
				_, _ = c.kill()
				return err
			}
		}
		for conn := range connections {
			p := pools[churnPoolFor(sz, conn, 0)]
			if err := cl.create(churnConfig("c", r.seed, conn, 0, p.id, sz.churnBudget)); err != nil {
				_, _ = c.kill()
				return err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		cl.close()
		if rep < sz.setupReps-1 {
			if _, err := c.kill(); err != nil {
				return err
			}
			continue
		}
		srv = c
	}
	r.op("setup", int64(sz.setupReps))
	r.metric("setup_s", median(setups))
	r.note("setup_s_all", setups)

	loads := make([]*churnLoad, connections)
	deadline := r.deadline()
	start := time.Now()
	parallel(func(c int) {
		loads[c] = &churnLoad{}
		churnConn(r, newClient(srv.addr), c, pools, loads[c], deadline)
	})
	elapsed := time.Since(start).Seconds()

	var total churnLoad
	for _, l := range loads {
		total.creates.merge(&l.creates)
		total.deletes.merge(&l.deletes)
		total.sessions += l.sessions
		total.labels += l.labels
	}
	cr := total.creates.summary()
	r.metric("labels_per_s", float64(total.labels)/elapsed)
	r.metric("op_p50_ms", cr.P50Ms)
	r.metric("op_tail_ms", cr.TailMs)
	r.note("create", cr)
	r.note("delete", total.deletes.summary())
	r.note("sessions_per_s", float64(total.sessions)/elapsed)
	r.note("labels", total.labels)
	r.note("elapsed_s", elapsed)

	cl := newClient(srv.addr)
	st, err := cl.stats()
	cl.close()
	r.op("stats", 1)
	if err != nil {
		r.fail("stats after the run: %v", err)
	} else {
		r.note("wal", st.WAL)
		r.note("pools", st.Pools)
		if st.WAL != nil && total.labels > 0 {
			r.note("disk_bytes_per_label", float64(st.WAL.BytesAppended)/float64(total.labels))
		}
	}
	u, err := srv.stop()
	if err != nil {
		return err
	}
	r.metric("rss_peak_mb", u.MaxRSSMB)
	r.note("server_usage", u)
	return nil
}

// churnConn is one closed-loop connection of the churn workload. Its first
// session was created during set-up.
func churnConn(r *run, cl *client, c int, pools []*churnPool, load *churnLoad, deadline time.Time) {
	defer cl.close()
	sz := r.sizes
	for k := 0; time.Now().Before(deadline); k++ {
		p := pools[churnPoolFor(sz, c, k)]
		cfg := churnConfig("c", r.seed, c, k, p.id, sz.churnBudget)
		cl.beginTrip()
		if k > 0 {
			t0 := time.Now()
			r.op("create", 1)
			if err := cl.create(cfg); err != nil {
				r.fail("create %s: %v", cfg.ID, err)
				continue
			}
			load.creates.add(time.Since(t0))
		}
		labelled := 0
		for range sz.churnBudget / sz.churnBatch {
			props, exhausted, err := cl.propose(cfg.ID, sz.churnBatch, true)
			r.op("propose", 1)
			if err != nil || exhausted || len(props) != sz.churnBatch {
				r.fail("propose %s: %d pairs, exhausted=%v, err=%v", cfg.ID, len(props), exhausted, err)
				break
			}
			committed, rejected, err := cl.labels(cfg.ID, props, p.input.truth, true)
			r.op("labels", 1)
			if err != nil || rejected > 0 || committed != len(props) {
				r.fail("labels %s: %d of %d committed, %d rejected, err=%v", cfg.ID, committed, len(props), rejected, err)
				break
			}
			labelled += committed
		}
		load.labels += int64(labelled)
		// The session must now report its budget exhausted.
		_, exhausted, err := cl.propose(cfg.ID, 1, true)
		r.op("propose", 1)
		if err != nil || !exhausted || labelled != sz.churnBudget {
			r.fail("session %s after %d labels: exhausted=%v err=%v", cfg.ID, labelled, exhausted, err)
		}
		t0 := time.Now()
		r.op("delete", 1)
		if err := cl.remove(cfg.ID); err != nil {
			r.fail("delete %s: %v", cfg.ID, err)
			continue
		}
		load.deletes.add(time.Since(t0))
		load.sessions++
		cl.endTrip("client.session_cycle")
	}
}
