package poolstore

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// putAndEvict stores a pool and evicts its resident columns, so the next
// Acquire exercises a cold load from disk.
func putAndEvict(t *testing.T, s *Store, scores []float64, preds []bool) string {
	t.Helper()
	info, _, err := s.Put(scores, preds)
	if err != nil {
		t.Fatal(err)
	}
	if n := s.Sweep(0); n != 1 {
		t.Fatalf("evicted %d pools, want 1", n)
	}
	return info.ID
}

// TestMmapAndDecodePathsByteIdentical is the cross-check the zero-copy path
// rests on: the mmap-aliased columns and the streaming-decoded columns of
// one pool file must be byte-identical, element for element.
func TestMmapAndDecodePathsByteIdentical(t *testing.T) {
	scores, preds := testColumns(4097, 7) // odd size: exercises preds pad bits
	dir := t.TempDir()

	load := func(decodeOnly bool) *Pool {
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s.SetDecodeOnly(decodeOnly)
		info, _, err := s.Put(scores, preds)
		if err != nil {
			t.Fatal(err)
		}
		if n := s.Sweep(0); n != 1 {
			t.Fatalf("evicted %d pools, want 1", n)
		}
		p, err := s.Acquire(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Release(info.ID) })
		in, err := s.Get(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if in.Mapped == decodeOnly && mmapSupported {
			t.Fatalf("decodeOnly=%v but Mapped=%v", decodeOnly, in.Mapped)
		}
		return p
	}

	mapped, decoded := load(false), load(true)
	if mapped.N() != decoded.N() {
		t.Fatalf("size mismatch: %d vs %d", mapped.N(), decoded.N())
	}
	for i := range scores {
		if mapped.Scores[i] != decoded.Scores[i] || mapped.Scores[i] != scores[i] {
			t.Fatalf("score mismatch at %d: mapped %v, decoded %v, want %v", i, mapped.Scores[i], decoded.Scores[i], scores[i])
		}
		if mapped.Preds[i] != decoded.Preds[i] || mapped.Preds[i] != preds[i] {
			t.Fatalf("pred mismatch at %d", i)
		}
	}
}

// encodeV1 builds the legacy OASISPL1 encoding (20-byte header, misaligned
// scores) that pre-PR7 stores wrote: the read-compat and fallback tests feed
// it to the current store.
func encodeV1(tb testing.TB, scores []float64, preds []bool) []byte {
	tb.Helper()
	n := len(scores)
	buf := make([]byte, 0, codecHeaderSizeV1+sectionsSize(n))
	buf = append(buf, codecMagicV1...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	scoresOff := len(buf)
	for _, s := range scores {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s))
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[scoresOff:], castagnoli))
	predsOff := len(buf)
	buf = append(buf, make([]byte, (n+7)/8)...)
	for i, p := range preds {
		if p {
			buf[predsOff+i/8] |= 1 << (i % 8)
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[predsOff:], castagnoli))
	return buf
}

// TestV1FilesStillLoad pins the read-compat contract: a pool file written in
// the v1 format keeps its v1 content address and still loads — through the
// decode path, never the mmap alias (its scores section is misaligned).
func TestV1FilesStillLoad(t *testing.T) {
	scores, preds := testColumns(513, 3)
	encoded := encodeV1(t, scores, preds)
	id := contentID(encoded)
	dir := t.TempDir()
	if err := os.WriteFile(dir+"/"+id+poolFileSuffix, encoded, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Len(); got != 1 {
		t.Fatalf("indexed %d pools, want 1 (v1 file not recognised?)", got)
	}
	p, err := s.Acquire(id)
	if err != nil {
		t.Fatalf("acquire v1 pool: %v", err)
	}
	defer s.Release(id)
	for i := range scores {
		if p.Scores[i] != scores[i] || p.Preds[i] != preds[i] {
			t.Fatalf("v1 column mismatch at %d", i)
		}
	}
	info, err := s.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mapped {
		t.Fatal("v1 pool must take the decode path, not the mmap alias")
	}
}

// TestVerifyOncePerOpen pins the verification policy: the SHA-256 content
// check runs on the first load after a store opens; a warm reacquire after
// eviction re-checks only the section CRCs. Observable because a tampered
// file with recomputed CRCs passes the warm path (CRCs consistent) but
// fails the cold one (hash differs).
func TestVerifyOncePerOpen(t *testing.T) {
	scores, preds := testColumns(64, 11)
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	id := putAndEvict(t, s, scores, preds)

	// First load: full verification.
	if _, err := s.Acquire(id); err != nil {
		t.Fatal(err)
	}
	s.Release(id)
	if n := s.Sweep(0); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}

	// Tamper one score and recompute the scores CRC, keeping the file
	// internally consistent but no longer matching its content address.
	path := s.path(id)
	c, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lay, err := parseHeader(c, len(c))
	if err != nil {
		t.Fatal(err)
	}
	c[lay.scoresOff] ^= 0x01
	binary.LittleEndian.PutUint32(c[lay.scoresEnd():], crc32.Checksum(c[lay.scoresOff:lay.scoresEnd()], castagnoli))
	if err := os.WriteFile(path, c, 0o644); err != nil {
		t.Fatal(err)
	}

	// Warm reacquire in the same store lifetime: CRC-only, so it succeeds.
	if _, err := s.Acquire(id); err != nil {
		t.Fatalf("warm reacquire should skip the hash, got: %v", err)
	}
	s.Release(id)

	// A fresh open re-runs full verification and must catch the swap.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Acquire(id); err == nil || !strings.Contains(err.Error(), "content verification") {
		t.Fatalf("cold acquire of tampered file: got %v, want content verification failure", err)
	}
}

// TestMemBudgetEvictsLRU drives the byte-budget sweep: crossing the budget
// evicts the least-recently-used unreferenced pools first, referenced pools
// are pinned, and the decisions land in Stats.
func TestMemBudgetEvictsLRU(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic LRU clock.
	tick := time.Unix(1000, 0)
	s.now = func() time.Time { tick = tick.Add(time.Second); return tick }

	var ids []string
	for i := 0; i < 3; i++ {
		scores, preds := testColumns(1000, uint64(i+1))
		info, _, err := s.Put(scores, preds)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	// Touch pool 0 last, making pool 1 the LRU; hold a reference on pool 2.
	if _, err := s.Acquire(ids[0]); err != nil {
		t.Fatal(err)
	}
	s.Release(ids[0])
	if _, err := s.Acquire(ids[2]); err != nil {
		t.Fatal(err)
	}

	per := heapColumnsBytes(1000)
	s.SetMemBudget(2 * per) // room for two resident pools
	st := s.Stats()
	if st.BudgetEvictions != 1 || st.Loaded != 2 {
		t.Fatalf("budget evictions %d loaded %d, want 1 and 2", st.BudgetEvictions, st.Loaded)
	}
	if got, err := s.Get(ids[1]); err != nil || got.Loaded {
		t.Fatalf("pool 1 (LRU, unreferenced) should have been evicted: %+v, %v", got, err)
	}
	if got, _ := s.Get(ids[2]); !got.Loaded {
		t.Fatal("referenced pool must never be evicted")
	}
	if len(st.RecentEvictions) != 1 || st.RecentEvictions[0].ID != ids[1] || st.RecentEvictions[0].Reason != "budget" {
		t.Fatalf("eviction log: %+v", st.RecentEvictions)
	}

	// Squeeze further: pool 0 goes too; pool 2 is pinned by its reference,
	// so the store stays (legitimately) over budget.
	s.SetMemBudget(per / 2)
	st = s.Stats()
	if st.BudgetEvictions != 2 || st.Loaded != 1 {
		t.Fatalf("after squeeze: budget evictions %d loaded %d, want 2 and 1", st.BudgetEvictions, st.Loaded)
	}
	// Releasing the last reference makes pool 2 evictable; the release
	// itself triggers enforcement.
	s.Release(ids[2])
	if st = s.Stats(); st.Loaded != 0 {
		t.Fatalf("release should have let the budget sweep evict the last resident, loaded=%d", st.Loaded)
	}
}

// TestResidentBytesChargesHeldColumns holds the memory budget's accounting
// to what the store holds: a put pool costs its 8 B score and 1 B
// prediction per pair, a mapped one its mapping and 1 B per pair of
// predictions, each plus its cached strata. A stored pool has no ground
// truth, so no column is charged for one.
func TestResidentBytesChargesHeldColumns(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const n, strataBytes = 1000, 8*1000 + 64
	scores, preds := testColumns(n, 8)
	info, _, err := s.Put(scores, preds)
	if err != nil {
		t.Fatal(err)
	}
	id := info.ID
	cacheStrata := func() {
		t.Helper()
		if _, err := s.Strata(id, StrataKey{K: 30, Calibrated: true}, func() (any, int64, error) {
			return "strata", strataBytes, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Acquire(id); err != nil {
		t.Fatal(err)
	}
	cacheStrata()
	if got, want := s.Stats().ResidentBytes, int64(9*n+strataBytes); got != want {
		t.Fatalf("after Put: resident %d B, want %d (9 B per pair plus the strata)", got, want)
	}

	s.Release(id)
	if s.Sweep(0) != 1 {
		t.Fatal("the pool was not evicted")
	}
	if _, err := s.Acquire(id); err != nil {
		t.Fatal(err)
	}
	defer s.Release(id)
	cacheStrata()
	st := s.Stats()
	want := int64(9*n + strataBytes) // the streaming decode's heap columns
	if mmapSupported {
		if st.Mapped != 1 {
			t.Fatalf("cold load did not map the pool: %+v", st)
		}
		want = st.MmapBytes + n + strataBytes
	}
	if st.ResidentBytes != want {
		t.Fatalf("after a cold load: resident %d B, want %d (mapped %d B)", st.ResidentBytes, want, st.MmapBytes)
	}
}

// TestStrataCache exercises the per-pool stratification memo: one compute
// for racing callers, hits afterwards, dropped with the columns on eviction.
func TestStrataCache(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	scores, preds := testColumns(500, 5)
	info, _, err := s.Put(scores, preds)
	if err != nil {
		t.Fatal(err)
	}
	id := info.ID
	if _, err := s.Acquire(id); err != nil {
		t.Fatal(err)
	}
	key := StrataKey{K: 30, Calibrated: true}

	var computes atomic.Int32
	compute := func() (any, int64, error) {
		computes.Add(1)
		return "stratification", 64, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := s.Strata(id, key, compute)
			if err != nil || v != "stratification" {
				t.Errorf("strata: %v, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("computed %d times for 8 racing callers, want 1", got)
	}
	st := s.Stats()
	if st.StrataCacheMisses != 1 || st.StrataCacheHits != 7 || st.StrataCached != 1 {
		t.Fatalf("strata counters: misses=%d hits=%d cached=%d", st.StrataCacheMisses, st.StrataCacheHits, st.StrataCached)
	}

	// A different key computes separately.
	if _, err := s.Strata(id, StrataKey{K: 10}, compute); err != nil {
		t.Fatal(err)
	}
	if got := computes.Load(); got != 2 {
		t.Fatalf("distinct key should recompute, computes=%d", got)
	}

	// Eviction drops the cached strata with the columns.
	s.Release(id)
	if n := s.Sweep(0); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	if st = s.Stats(); st.StrataCached != 0 {
		t.Fatalf("eviction should drop cached strata, cached=%d", st.StrataCached)
	}
}

// TestConcurrentAcquireReleaseUnderBudget is the race-detector stress for
// evict-while-acquiring: many goroutines acquire, read and release pools
// while idle sweeps and a punishing memory budget evict behind them. The
// refcount must pin columns (and mappings) — a session must never observe
// unmapped or wrong data — and no load may be torn by a concurrent evict.
func TestConcurrentAcquireReleaseUnderBudget(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const pools, pairs = 4, 2048
	ids := make([]string, pools)
	first := make([]float64, pools)
	for i := range ids {
		scores, preds := testColumns(pairs, uint64(100+i))
		info, _, err := s.Put(scores, preds)
		if err != nil {
			t.Fatal(err)
		}
		ids[i], first[i] = info.ID, scores[0]
	}
	// Budget fits roughly one pool: nearly every release makes someone
	// evictable, and most acquires are cold loads racing the sweeps.
	s.SetMemBudget(heapColumnsBytes(pairs) + heapColumnsBytes(pairs)/2)

	var workers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		workers.Add(1)
		go func(seed int64) {
			defer workers.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				k := r.Intn(pools)
				p, err := s.Acquire(ids[k])
				if err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				// Touch the columns across their whole range: if an evict
				// unmapped them while we hold the reference, this faults.
				if p.Scores[0] != first[k] || len(p.Scores) != pairs || len(p.Preds) != pairs {
					t.Errorf("pool %d: wrong columns", k)
				}
				_ = p.Scores[pairs-1]
				if i%7 == 0 {
					if _, err := s.Strata(ids[k], StrataKey{K: 5}, func() (any, int64, error) {
						return k, 8, nil
					}); err != nil {
						t.Errorf("strata: %v", err)
					}
				}
				s.Release(ids[k])
			}
		}(int64(g))
	}
	sweeperDone := make(chan struct{})
	go func() {
		defer close(sweeperDone)
		for {
			select {
			case <-stop:
				return
			default:
				s.Sweep(0)
				s.SetMemBudget(heapColumnsBytes(pairs))
			}
		}
	}()
	workers.Wait()
	close(stop)
	<-sweeperDone

	st := s.Stats()
	if st.Refs != 0 {
		t.Fatalf("leaked %d references", st.Refs)
	}
	if st.Evictions == 0 {
		t.Fatal("stress never evicted anything; budget not exercised")
	}
}
