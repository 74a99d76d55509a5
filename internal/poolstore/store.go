// Package poolstore is a durable, content-addressed, reference-counted
// registry of evaluation pools (the score/prediction columns every session
// samples against).
//
// The serving reality behind it: one candidate-pair pool is evaluated by
// many annotators at once, so the same million-pair columns used to be
// re-uploaded per session, re-copied per session in memory, and serialised
// into every WAL create record and every snapshot. The store inverts that.
// A pool is uploaded once — JSON or the compact binary columnar form (see
// codec.go) — canonically encoded, addressed by the SHA-256 of those bytes,
// and persisted as an immutable fsync'd file named by its hash. Sessions
// then reference the pool by ID: every concurrent session shares one
// read-only in-memory copy under a reference count, WAL create records and
// manager snapshots persist only the hash (O(1) instead of O(N)), and
// replay resolves the hash back through the store. Put returns only after
// the pool file is durable, so a WAL create record can never reference a
// pool that a crash could un-write.
//
// Cold loads are zero-copy where the platform allows: on linux/{amd64,arm64}
// the immutable pool file is mmap'd read-only, the section CRCs are verified
// against the mapped bytes, and the scores column is aliased straight out of
// the mapping as []float64 — residency is then governed by the page cache,
// not the Go heap. The full SHA-256 content verification runs once per
// store open per pool; warm reacquires of an evicted pool re-check only the
// section CRCs. Other platforms (and legacy v1 files) take a streaming
// decode that reads the file section by section through a fixed-size buffer,
// so peak load memory is one buffer, never a second whole-pool copy.
//
// Stratifications are cached beside the pool: CSF/equal-size strata are a
// pure function of (pool columns, strata options), so the session layer
// memoises them per (pool, options) under the same refcount via Strata —
// N sessions over one pool stratify once.
//
// Unreferenced pools are garbage-collected three ways: DELETE (Remove)
// drops an unreferenced pool from disk and memory, an idle sweep (Sweep)
// evicts the in-memory columns of unreferenced pools, and a byte-budget
// sweep (SetMemBudget) evicts least-recently-used unreferenced residents —
// unmapping or dropping their columns and cached strata — until resident
// memory is back under budget. Eviction decisions are surfaced in Stats.
// The durable files stay; the next Acquire reloads and re-verifies.
//
// All methods are safe for concurrent use. The store never mutates a
// loaded pool's columns, and callers must not either: the whole point is
// that every session reads the same backing arrays (for mapped pools they
// are not even writable — the mapping is PROT_READ).
package poolstore

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"oasis/internal/trace"
)

// Errors returned by the store.
var (
	// ErrNotFound is returned for IDs the store does not hold.
	ErrNotFound = errors.New("poolstore: no such pool")
	// ErrInUse is returned by Remove while sessions still reference the pool.
	ErrInUse = errors.New("poolstore: pool is referenced by live sessions")
)

// Pool is one immutable, shared evaluation pool. Scores and Preds are the
// content-addressed columns; every session referencing the pool aliases the
// same backing arrays and must treat them as read-only. For a mapped pool,
// Scores aliases the read-only mmap directly (zero-copy); the refcount the
// session holds is what pins the mapping.
type Pool struct {
	// ID is the pool's content address (hex SHA-256 of its encoding).
	ID string
	// Scores and Preds are the shared columns, parallel slices.
	Scores []float64
	Preds  []bool

	// truth is a shared all-zero oracle-probability column: the serving path
	// never reads ground truth, but the pool plumbing requires the column to
	// exist, and allocating it once per pool instead of once per session is
	// part of the single-copy contract.
	truth []float64
}

// N returns the number of pairs.
func (p *Pool) N() int { return len(p.Scores) }

// Truth returns the shared all-zero oracle-probability column.
func (p *Pool) Truth() []float64 { return p.truth }

// entry is the store's record of one pool. pool is nil while the columns
// are not resident (on-disk only, loaded on demand).
type entry struct {
	pool      *Pool
	mapped    *mapping // non-nil while pool.Scores aliases an mmap
	pairs     int
	bytes     int64
	heapBytes int64 // resident heap cost of the columns (excludes the mapping)
	refs      int
	idleSince time.Time // refs last hit zero (or the entry appeared unreferenced)
	lastUsed  time.Time // most recent Acquire/Release/strata hit: the LRU clock
	// verified records that the full SHA-256 content verification ran for
	// this entry since the store opened; warm reloads after an eviction then
	// re-check only the per-section CRCs (the one-time-per-open policy).
	verified bool

	// strata caches stratifications computed over this pool's columns, keyed
	// by the options that determine them; strataBytes is their resident
	// cost. The cache lives and dies with the resident columns: eviction
	// drops both.
	strata      map[StrataKey]any
	strataBytes int64

	// loadMu serialises cold loads of this entry only: the disk read, hash
	// verification and decode of a large pool must not run under the
	// store-wide mutex, or every unrelated Acquire/Release/Stats would stall
	// behind it.
	loadMu sync.Mutex
	// strataMu serialises stratification computes for this entry, so N
	// racing sessions over one pool stratify once instead of N times.
	strataMu sync.Mutex
}

// residentCost is the entry's contribution to the memory budget: heap
// columns, the mapped file (address space + page cache), and cached strata.
// Callers hold s.mu.
func (e *entry) residentCost() int64 {
	if e.pool == nil {
		return 0
	}
	c := e.heapBytes + e.strataBytes
	if e.mapped != nil {
		c += int64(len(e.mapped.data))
	}
	return c
}

// info snapshots the entry's Info; callers hold s.mu.
func (e *entry) info(id string) Info {
	return Info{ID: id, Pairs: e.pairs, Bytes: e.bytes, Refs: e.refs, Loaded: e.pool != nil,
		Mapped: e.mapped != nil, StrataCached: len(e.strata)}
}

// EvictionRecord is one eviction decision, surfaced via Stats (and from
// there /v1/stats) so operators can see what the budget and idle sweeps are
// doing without scraping logs.
type EvictionRecord struct {
	ID    string `json:"id"`
	Bytes int64  `json:"bytes"` // resident cost released
	// Reason is "idle" (Sweep) or "budget" (memory-budget LRU).
	Reason string `json:"reason"`
	Unix   int64  `json:"unix"`
}

// evictionLogSize bounds the eviction ring kept for Stats.
const evictionLogSize = 16

// Stats is a snapshot of the store's counters, exposed by the server's
// /v1/stats endpoint.
type Stats struct {
	// Pools counts registered pools; Loaded those with resident columns;
	// Mapped the subset served zero-copy off an mmap.
	Pools  int `json:"pools"`
	Loaded int `json:"loaded"`
	Mapped int `json:"mapped"`
	// Refs is the total number of live session references across all pools.
	Refs int `json:"refs"`
	// Bytes is the total encoded size of all registered pools;
	// ResidentBytes the store's estimate of resident memory cost (heap
	// columns + mapped files + cached strata); MmapBytes the mapped share of
	// it (page-cache-governed, reclaimable by the kernel).
	Bytes         int64 `json:"bytes"`
	ResidentBytes int64 `json:"residentBytes"`
	MmapBytes     int64 `json:"mmapBytes"`
	// MemBudget is the configured resident-memory budget (0 = unlimited).
	MemBudget int64 `json:"memBudget,omitempty"`
	// Puts counts uploads that stored a new pool; DedupHits uploads that
	// landed on an already-stored one.
	Puts      uint64 `json:"puts"`
	DedupHits uint64 `json:"dedupHits"`
	// Loads counts on-demand loads from disk; Evictions drops of resident
	// pool columns (idle sweeps and budget sweeps; BudgetEvictions is the
	// budget share); Sweeps the idle-sweep passes; Removes deleted pools.
	Loads           uint64 `json:"loads"`
	Evictions       uint64 `json:"evictions"`
	BudgetEvictions uint64 `json:"budgetEvictions"`
	Sweeps          uint64 `json:"sweeps"`
	Removes         uint64 `json:"removes"`
	// StrataCacheHits counts sessions that reused a cached stratification;
	// StrataCacheMisses those that computed one; StrataCached the
	// stratifications currently resident.
	StrataCacheHits   uint64 `json:"strataCacheHits"`
	StrataCacheMisses uint64 `json:"strataCacheMisses"`
	StrataCached      int    `json:"strataCached"`
	// Damaged counts pool files Open quarantined (unreadable headers); see
	// Store.Damaged for the names.
	Damaged int `json:"damaged,omitempty"`
	// RecentEvictions is the ring of the most recent eviction decisions,
	// newest last.
	RecentEvictions []EvictionRecord `json:"recentEvictions,omitempty"`
}

// Info describes one pool for the list/introspection endpoints.
type Info struct {
	ID     string `json:"id"`
	Pairs  int    `json:"pairs"`
	Bytes  int64  `json:"bytes"`
	Refs   int    `json:"refs"`
	Loaded bool   `json:"loaded"`
	// Mapped reports the columns are served zero-copy off an mmap;
	// StrataCached counts cached stratifications for this pool.
	Mapped       bool `json:"mapped,omitempty"`
	StrataCached int  `json:"strataCached,omitempty"`
}

// Store is the pool registry. A Store with a directory persists every pool
// as an immutable file named <id>.pool and survives restarts; a Store
// without one (dir "") is memory-only — fine for tests and for servers
// that do not journal, but a WAL-backed server should always persist pools,
// or replay could not resolve the create records it finds.
type Store struct {
	dir string

	mu           sync.Mutex
	pools        map[string]*entry
	damaged      []string         // pool files Open could not index (quarantined)
	now          func() time.Time // injected by tests
	memBudget    int64
	decodeOnly   bool // force the streaming decode path (tests, benchmarks, ops escape hatch)
	puts         uint64
	hits         uint64
	loads        uint64
	evicts       uint64
	budgetEvicts uint64
	sweeps       uint64
	removes      uint64
	strataHits   uint64
	strataMisses uint64
	evictLog     []EvictionRecord
}

const poolFileSuffix = ".pool"

// Open returns a store over dir, indexing (without loading) every pool file
// already present. An empty dir means a memory-only store.
func Open(dir string) (*Store, error) {
	s := &Store{dir: dir, pools: make(map[string]*entry), now: time.Now}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("poolstore: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("poolstore: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || filepath.Ext(name) != poolFileSuffix {
			continue
		}
		id := name[:len(name)-len(poolFileSuffix)]
		if !ValidID(id) {
			continue // not a pool file (e.g. an aborted temp file)
		}
		pairs, size, err := readPoolHeader(filepath.Join(dir, name))
		if err != nil {
			// Quarantine, don't refuse: a corrupt file that nothing durable
			// references must not keep the service down. The file is left in
			// place (never silently deleted) and reported via Damaged; any
			// session that actually references the ID fails to Acquire it,
			// which is where the deterministic fail-stop belongs.
			s.damaged = append(s.damaged, name)
			continue
		}
		now := s.now()
		s.pools[id] = &entry{pairs: pairs, bytes: size, idleSince: now, lastUsed: now}
	}
	sort.Strings(s.damaged)
	return s, nil
}

// Damaged lists the pool files Open could not index (unreadable or corrupt
// headers). They are left on disk untouched; operators should inspect or
// remove them. A damaged pool that a session still references fails that
// session's Acquire with a not-found error.
func (s *Store) Damaged() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.damaged...)
}

// Dir returns the store's directory ("" for a memory-only store).
func (s *Store) Dir() string { return s.dir }

// Durable reports whether the store persists pools to disk. The session
// manager interns inline pools only into a durable store: interning into a
// memory-only one would write snapshots (and journals) whose pool
// references die with the process.
func (s *Store) Durable() bool { return s.dir != "" }

// SetMemBudget caps the store's resident pool memory (heap columns, mapped
// files and cached strata) at budget bytes; 0 disables the cap. When over
// budget, least-recently-used unreferenced residents are evicted — columns
// unmapped or dropped, cached strata with them — until back under (or
// nothing unreferenced remains; referenced pools are never evicted, so the
// budget is a target, not a hard guarantee). Enforcement runs inline on
// every transition that can cross the budget: loads, puts, releases, and
// this call.
func (s *Store) SetMemBudget(budget int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.memBudget = budget
	s.enforceBudgetLocked()
}

// SetDecodeOnly forces every cold load onto the streaming decode path even
// where mmap is supported — the knob the mmap-vs-decode equivalence tests
// and benchmarks use, and an operational escape hatch.
func (s *Store) SetDecodeOnly(v bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.decodeOnly = v
}

// readPoolHeader reads just enough of a pool file to index it: the verified
// header (pair count) and the file size.
func readPoolHeader(path string) (pairs int, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	// Read the larger (v2) header size; any structurally valid pool file of
	// either version is longer than that, so a short read means damage.
	hdr := make([]byte, codecHeaderSize)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return 0, 0, fmt.Errorf("short pool file: %w", err)
	}
	pairs, err = decodeHeader(hdr, info.Size())
	if err != nil {
		return 0, 0, err
	}
	return pairs, info.Size(), nil
}

// path returns the pool file path for id.
func (s *Store) path(id string) string { return filepath.Join(s.dir, id+poolFileSuffix) }

// heapColumnsBytes is the resident heap cost of fully decoded columns:
// scores (8n) + preds (n) + truth (8n).
func heapColumnsBytes(n int) int64 { return int64(n) * 17 }

// mappedColumnsBytes is the resident heap cost of mmap-aliased columns:
// preds (n) + truth (8n); the scores live in the mapping.
func mappedColumnsBytes(n int) int64 { return int64(n) * 9 }

// Put canonically encodes the pool columns, stores them under their content
// address, and returns the pool's Info (Info.ID is the content address).
// Re-putting an existing pool is a dedup hit (created == false) and writes
// nothing. With a directory, Put returns only once the pool file and its
// directory entry are fsync'd — the durability a WAL create record
// referencing the ID relies on.
func (s *Store) Put(scores []float64, preds []bool) (info Info, created bool, err error) {
	encoded, err := Encode(scores, preds)
	if err != nil {
		return Info{}, false, err
	}
	// Copy before registering: the registered columns become the shared
	// read-only copy every session aliases, and the caller keeps ownership
	// of (and may reuse) its own slices — the same contract the inline
	// session path has always had via oasis.NewPool's copy.
	scores = append([]float64(nil), scores...)
	preds = append([]bool(nil), preds...)
	return s.putEncoded(encoded, scores, preds, false)
}

// PutEncoded stores a pool already in canonical binary form (the upload
// endpoint's zero-parse path for binary bodies). The encoding is fully
// verified before anything is written, and must be the current (v2) form:
// accepting v1 bytes would store the pool under a second content address.
func (s *Store) PutEncoded(encoded []byte) (info Info, created bool, err error) {
	if len(encoded) >= len(codecMagicV1) && string(encoded[:len(codecMagicV1)]) == codecMagicV1 {
		return Info{}, false, errors.New("poolstore: v1 pool encodings load from disk only; upload the v2 form")
	}
	scores, preds, err := Decode(encoded)
	if err != nil {
		return Info{}, false, err
	}
	return s.putEncoded(encoded, scores, preds, false)
}

// putEncoded registers the verified (encoded, columns) pool, returning its
// Info snapshot as of registration. With acquire, the registration (or
// dedup hit) takes one reference atomically, so no concurrent Remove can
// slip between storing a pool and referencing it. The slow disk write runs
// outside the store lock: Acquire/Release/Stats on other pools never stall
// behind a large upload's fsyncs.
func (s *Store) putEncoded(encoded []byte, scores []float64, preds []bool, acquire bool) (Info, bool, error) {
	id := contentID(encoded)
	// registerHit re-lands on an already-registered pool; both critical
	// sections below share it.
	registerHit := func() (Info, bool) {
		e, ok := s.pools[id]
		if !ok {
			return Info{}, false
		}
		// Already stored — identical content, by construction of the address.
		// Re-populating the columns costs nothing and saves a disk reload.
		if e.pool == nil {
			e.pool = &Pool{ID: id, Scores: scores, Preds: preds, truth: make([]float64, len(scores))}
			e.heapBytes = heapColumnsBytes(len(scores))
			// The columns are byte-verified against the address by
			// construction: the encoding was just hashed.
			e.verified = true
		}
		if acquire {
			e.refs++
		}
		e.lastUsed = s.now()
		s.hits++
		info := e.info(id)
		s.enforceBudgetLocked()
		return info, true
	}
	s.mu.Lock()
	if info, ok := registerHit(); ok {
		s.mu.Unlock()
		return info, false, nil
	}
	s.mu.Unlock()
	if s.dir != "" {
		// Outside the lock: the write is atomic (temp + rename) and the
		// content is a pure function of the ID, so two racing Puts of the
		// same pool write identical files; the loser re-lands as a dedup hit
		// below.
		if err := writeFileAtomicSync(s.path(id), encoded, 0o644); err != nil {
			return Info{}, false, fmt.Errorf("poolstore: store pool: %w", err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if info, ok := registerHit(); ok {
		return info, false, nil
	}
	now := s.now()
	ent := &entry{
		pool:      &Pool{ID: id, Scores: scores, Preds: preds, truth: make([]float64, len(scores))},
		pairs:     len(scores),
		bytes:     int64(len(encoded)),
		heapBytes: heapColumnsBytes(len(scores)),
		verified:  true,
		idleSince: now,
		lastUsed:  now,
	}
	if acquire {
		ent.refs = 1
	}
	s.pools[id] = ent
	s.puts++
	info := ent.info(id)
	s.enforceBudgetLocked()
	return info, true, nil
}

// Intern stores the pool columns (a dedup hit if already stored) and takes
// one reference atomically, returning the ID, whether this call stored the
// pool, and a release for that reference. The session manager uses it when
// rewriting inline configs to the PoolID form: the temporary reference
// keeps a concurrent Remove from deleting the freshly interned pool before
// the session acquires it.
func (s *Store) Intern(scores []float64, preds []bool) (id string, stored bool, release func(), err error) {
	encoded, err := Encode(scores, preds)
	if err != nil {
		return "", false, nil, err
	}
	// Same defensive copy as Put: the caller's slices never become the
	// shared columns.
	scores = append([]float64(nil), scores...)
	preds = append([]bool(nil), preds...)
	info, stored, err := s.putEncoded(encoded, scores, preds, true)
	if err != nil {
		return "", false, nil, err
	}
	var once sync.Once
	return info.ID, stored, func() { once.Do(func() { s.Release(info.ID) }) }, nil
}

// Acquire resolves id to its shared pool and takes one reference, loading
// and re-verifying the pool file if the columns are not resident. Every
// Acquire must be balanced by a Release. The returned pool is shared:
// callers must not mutate its columns.
//
// A cold load — mmap or streaming decode, verification — runs under the
// entry's own lock, not the store-wide one, so loading one large pool never
// stalls operations on other pools; racing Acquires of the same pool still
// load it exactly once. The reference is taken in the same critical section
// that registers the loaded columns, so a budget or idle sweep can never
// observe a freshly loaded pool as unreferenced and unmap it out from under
// the acquiring session.
func (s *Store) Acquire(id string) (*Pool, error) {
	return s.AcquireCtx(context.Background(), id)
}

// AcquireCtx is Acquire with request context: when ctx carries a trace
// (internal/trace), the acquire is recorded as a span annotated with the
// path taken — warm (columns resident, refcount bump) vs. cold, and for
// cold loads whether the columns came off a zero-copy mmap or a streaming
// decode.
func (s *Store) AcquireCtx(ctx context.Context, id string) (*Pool, error) {
	tr := trace.FromContext(ctx)
	sp := tr.Start("pool", "pool.acquire")
	p, warm, mapped, err := s.acquire(id)
	if tr != nil {
		state := "cold"
		if warm {
			state = "warm"
		}
		sp.Attr("state", state)
		if !warm && err == nil {
			mode := "decode"
			if mapped {
				mode = "mmap"
			}
			sp.Attr("mode", mode)
		}
		if len(id) >= 12 {
			sp.Attr("pool", id[:12])
		} else {
			sp.Attr("pool", id)
		}
	}
	sp.End()
	return p, err
}

// acquire implements Acquire, reporting which path served the reference:
// warm (resident columns) or cold, and whether a cold load mmapped.
func (s *Store) acquire(id string) (_ *Pool, warm, mapped bool, err error) {
	for {
		s.mu.Lock()
		e, ok := s.pools[id]
		if !ok {
			s.mu.Unlock()
			return nil, false, false, fmt.Errorf("%w: %q", ErrNotFound, id)
		}
		if e.pool != nil {
			e.refs++
			e.lastUsed = s.now()
			p := e.pool
			s.mu.Unlock()
			return p, true, e.mapped != nil, nil
		}
		s.mu.Unlock()

		e.loadMu.Lock()
		// Re-check under the entry lock: a predecessor loader may have
		// populated the columns, or the entry may have been removed (and
		// possibly re-put) while we waited.
		s.mu.Lock()
		if cur, ok := s.pools[id]; !ok || cur != e {
			// Removed (or replaced) meanwhile: start over against the map.
			s.mu.Unlock()
			e.loadMu.Unlock()
			continue
		}
		if e.pool != nil {
			e.refs++
			e.lastUsed = s.now()
			p := e.pool
			s.mu.Unlock()
			e.loadMu.Unlock()
			return p, true, e.mapped != nil, nil
		}
		verified := e.verified
		decodeOnly := s.decodeOnly
		s.mu.Unlock()

		p, m, err := s.load(id, verified, decodeOnly) // slow: no store-wide lock held
		s.mu.Lock()
		if cur, ok := s.pools[id]; !ok || cur != e {
			// A concurrent Remove won while we were reading (refs were 0, so
			// it was entitled to): the loaded copy is orphaned.
			s.mu.Unlock()
			e.loadMu.Unlock()
			if m != nil {
				_ = m.unmap()
			}
			if err == nil {
				continue // the ID may have been re-put; re-resolve
			}
			return nil, false, false, fmt.Errorf("%w: %q", ErrNotFound, id)
		}
		if err != nil {
			s.mu.Unlock()
			e.loadMu.Unlock()
			return nil, false, false, err
		}
		e.pool = p
		e.mapped = m
		if m != nil {
			e.heapBytes = mappedColumnsBytes(p.N())
		} else {
			e.heapBytes = heapColumnsBytes(p.N())
		}
		e.pairs = p.N()
		e.verified = true
		e.lastUsed = s.now()
		s.loads++
		e.refs++
		s.enforceBudgetLocked()
		s.mu.Unlock()
		e.loadMu.Unlock()
		return p, false, m != nil, nil
	}
}

// load materialises the pool file for id: the zero-copy mmap path where the
// platform and the file's format version allow it, the streaming decode
// otherwise. verified skips the whole-file SHA-256 (the one-time-per-open
// policy — section CRCs are always re-checked).
func (s *Store) load(id string, verified, decodeOnly bool) (*Pool, *mapping, error) {
	path := s.path(id)
	if mmapSupported && !decodeOnly {
		p, m, err, fellBack := s.loadMapped(path, id, verified)
		if !fellBack {
			return p, m, err
		}
	}
	p, err := s.loadDecode(path, id, verified)
	return p, nil, err
}

// loadMapped maps the pool file and serves the scores column straight out
// of the mapping. fellBack reports the file needs the decode path instead
// (v1 layout, whose scores are misaligned); verification failures are
// returned as errors, not fallbacks — a corrupt file must fail loudly, not
// be re-read more forgivingly.
func (s *Store) loadMapped(path, id string, verified bool) (_ *Pool, _ *mapping, err error, fellBack bool) {
	m, err := mapPoolFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil, fmt.Errorf("poolstore: read pool %q: %w", id, err), false
		}
		// mmap itself failed (exotic filesystem, resource limits): the
		// decode path still works, so degrade instead of failing the load.
		return nil, nil, nil, true
	}
	defer func() {
		if err != nil || fellBack {
			_ = m.unmap()
		}
	}()
	lay, err := parseHeader(m.data, len(m.data))
	if err != nil {
		return nil, nil, fmt.Errorf("poolstore: pool %q: %w", id, err), false
	}
	if !lay.aligned {
		return nil, nil, nil, true // v1 file: scores misaligned, decode it
	}
	if err := verifySections(m.data, lay); err != nil {
		return nil, nil, fmt.Errorf("poolstore: pool %q: %w", id, err), false
	}
	if !verified {
		// First load since open: the content address is the root of trust —
		// recompute it over the mapped bytes so a swapped file can never
		// resolve — and scan the scores for non-finite values once.
		if got := contentID(m.data); got != id {
			return nil, nil, fmt.Errorf("poolstore: pool %q fails content verification: file hashes to %q", id, got), false
		}
		for i, sc := range m.aliasScores(lay) {
			if math.IsNaN(sc) || math.IsInf(sc, 0) {
				return nil, nil, fmt.Errorf("poolstore: pool %q: non-finite score at %d", id, i), false
			}
		}
	}
	preds, err := decodePreds(m.data, lay)
	if err != nil {
		return nil, nil, fmt.Errorf("poolstore: pool %q: %w", id, err), false
	}
	p := &Pool{ID: id, Scores: m.aliasScores(lay), Preds: preds, truth: make([]float64, lay.n)}
	return p, m, nil, false
}

// loadBufSize is the reused read buffer of the streaming decode path: peak
// load memory is one buffer (plus the decoded columns), never a second
// whole-pool copy. Must be a multiple of 8 so score chunks split cleanly.
const loadBufSize = 1 << 20

// loadDecode reads, verifies and decodes the pool file section by section
// through a fixed-size buffer. verified skips the whole-file SHA-256.
func (s *Store) loadDecode(path, id string, verified bool) (*Pool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("poolstore: read pool %q: %w", id, err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("poolstore: read pool %q: %w", id, err)
	}
	var hasher hash.Hash
	var r io.Reader = f
	if !verified {
		hasher = sha256.New()
		r = io.TeeReader(f, hasher)
	}
	// Header: read the v1 prefix, then the v2 pad if the magic says so.
	hdr := make([]byte, codecHeaderSizeV1, codecHeaderSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("poolstore: pool %q: short pool file: %w", id, err)
	}
	if string(hdr[:8]) == codecMagic {
		hdr = hdr[:codecHeaderSize]
		if _, err := io.ReadFull(r, hdr[codecHeaderSizeV1:]); err != nil {
			return nil, fmt.Errorf("poolstore: pool %q: short pool file: %w", id, err)
		}
	}
	lay, err := parseHeader(hdr, int(info.Size()))
	if err != nil {
		return nil, fmt.Errorf("poolstore: pool %q: %w", id, err)
	}

	buf := make([]byte, loadBufSize)
	var trailer [4]byte
	readSection := func(size int, consume func(chunk []byte)) (uint32, error) {
		crc := uint32(0)
		for size > 0 {
			chunk := buf
			if size < len(chunk) {
				chunk = chunk[:size]
			}
			if _, err := io.ReadFull(r, chunk); err != nil {
				return 0, fmt.Errorf("short section: %w", err)
			}
			crc = crc32.Update(crc, castagnoli, chunk)
			consume(chunk)
			size -= len(chunk)
		}
		if _, err := io.ReadFull(r, trailer[:]); err != nil {
			return 0, fmt.Errorf("short section CRC: %w", err)
		}
		return crc, nil
	}

	scores := make([]float64, lay.n)
	si := 0
	crcS, err := readSection(8*lay.n, func(chunk []byte) {
		for off := 0; off < len(chunk); off += 8 {
			scores[si] = math.Float64frombits(binary.LittleEndian.Uint64(chunk[off:]))
			si++
		}
	})
	if err != nil {
		return nil, fmt.Errorf("poolstore: pool %q: %w", id, err)
	}
	if crcS != binary.LittleEndian.Uint32(trailer[:]) {
		return nil, fmt.Errorf("poolstore: pool %q: scores section CRC mismatch", id)
	}
	for i, sc := range scores {
		if math.IsNaN(sc) || math.IsInf(sc, 0) {
			return nil, fmt.Errorf("poolstore: pool %q: non-finite score at %d", id, i)
		}
	}

	preds := make([]bool, lay.n)
	pi := 0
	var lastPredsByte byte
	crcP, err := readSection((lay.n+7)/8, func(chunk []byte) {
		for _, b := range chunk {
			for bit := 0; bit < 8 && pi < lay.n; bit++ {
				preds[pi] = b&(1<<bit) != 0
				pi++
			}
			lastPredsByte = b
		}
	})
	if err != nil {
		return nil, fmt.Errorf("poolstore: pool %q: %w", id, err)
	}
	if crcP != binary.LittleEndian.Uint32(trailer[:]) {
		return nil, fmt.Errorf("poolstore: pool %q: preds section CRC mismatch", id)
	}
	if err := checkPadBits(lastPredsByte, lay.n); err != nil {
		return nil, fmt.Errorf("poolstore: pool %q: %w", id, err)
	}
	if hasher != nil {
		if got := hex.EncodeToString(hasher.Sum(nil)); got != id {
			return nil, fmt.Errorf("poolstore: pool %q fails content verification: file hashes to %q", id, got)
		}
	}
	return &Pool{ID: id, Scores: scores, Preds: preds, truth: make([]float64, lay.n)}, nil
}

// Release returns one reference taken by Acquire. Releasing an unknown or
// unreferenced pool is a no-op (the session layer may release on teardown
// paths that never completed their acquire).
func (s *Store) Release(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.pools[id]
	if !ok || e.refs == 0 {
		return
	}
	e.refs--
	e.lastUsed = s.now()
	if e.refs == 0 {
		e.idleSince = s.now()
		// The pool just became evictable: if the store is over budget, this
		// is the moment the LRU sweep can finally act on it.
		s.enforceBudgetLocked()
	}
}

// Refs returns the live reference count of id (0 for unknown pools).
func (s *Store) Refs(id string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.pools[id]; ok {
		return e.refs
	}
	return 0
}

// Remove deletes an unreferenced pool from the store and from disk. It
// returns ErrInUse while sessions reference the pool and ErrNotFound for
// unknown IDs.
func (s *Store) Remove(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.pools[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if e.refs > 0 {
		return fmt.Errorf("%w: %q has %d reference(s)", ErrInUse, id, e.refs)
	}
	if s.dir != "" {
		if err := os.Remove(s.path(id)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("poolstore: remove pool %q: %w", id, err)
		}
	}
	if e.mapped != nil {
		_ = e.mapped.unmap()
		e.mapped = nil
	}
	e.pool = nil
	delete(s.pools, id)
	s.removes++
	return nil
}

// evictLocked drops the entry's resident columns (unmapping if mapped) and
// cached strata, recording the decision. Callers hold s.mu and must have
// checked refs == 0 and pool != nil.
func (s *Store) evictLocked(id string, e *entry, reason string) {
	cost := e.residentCost()
	if e.mapped != nil {
		_ = e.mapped.unmap()
		e.mapped = nil
	}
	e.pool = nil
	e.heapBytes = 0
	e.strata = nil
	e.strataBytes = 0
	s.evicts++
	if reason == "budget" {
		s.budgetEvicts++
	}
	s.evictLog = append(s.evictLog, EvictionRecord{ID: id, Bytes: cost, Reason: reason, Unix: s.now().Unix()})
	if len(s.evictLog) > evictionLogSize {
		s.evictLog = s.evictLog[len(s.evictLog)-evictionLogSize:]
	}
}

// enforceBudgetLocked evicts least-recently-used unreferenced residents
// until resident memory is back under the budget. Callers hold s.mu. A
// memory-only store never evicts (the columns are the only copy), and
// referenced pools are pinned — with every resident referenced the store
// stays over budget until something is released.
func (s *Store) enforceBudgetLocked() {
	if s.memBudget <= 0 || s.dir == "" {
		return
	}
	var resident int64
	type victim struct {
		id string
		e  *entry
	}
	var victims []victim
	for id, e := range s.pools {
		resident += e.residentCost()
		if e.pool != nil && e.refs == 0 {
			victims = append(victims, victim{id, e})
		}
	}
	if resident <= s.memBudget {
		return
	}
	sort.Slice(victims, func(i, k int) bool { return victims[i].e.lastUsed.Before(victims[k].e.lastUsed) })
	for _, v := range victims {
		if resident <= s.memBudget {
			return
		}
		resident -= v.e.residentCost()
		s.evictLocked(v.id, v.e, "budget")
	}
}

// Sweep evicts the resident columns of every unreferenced pool that has
// been idle for at least idleFor, returning how many pools it evicted. The
// durable files stay; the next Acquire reloads them. A memory-only store
// never evicts (the columns are the only copy).
func (s *Store) Sweep(idleFor time.Duration) int {
	if s.dir == "" {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweeps++
	now := s.now()
	evicted := 0
	for id, e := range s.pools {
		if e.pool != nil && e.refs == 0 && now.Sub(e.idleSince) >= idleFor {
			s.evictLocked(id, e, "idle")
			evicted++
		}
	}
	return evicted
}

// Len returns the number of registered pools.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pools)
}

// Get returns the Info of one pool, or ErrNotFound.
func (s *Store) Get(id string) (Info, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.pools[id]
	if !ok {
		return Info{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return e.info(id), nil
}

// List returns every pool's Info, sorted by ID.
func (s *Store) List() []Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Info, 0, len(s.pools))
	for id, e := range s.pools {
		out = append(out, e.info(id))
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Pools:             len(s.pools),
		MemBudget:         s.memBudget,
		Puts:              s.puts,
		DedupHits:         s.hits,
		Loads:             s.loads,
		Evictions:         s.evicts,
		BudgetEvictions:   s.budgetEvicts,
		Sweeps:            s.sweeps,
		Removes:           s.removes,
		StrataCacheHits:   s.strataHits,
		StrataCacheMisses: s.strataMisses,
		Damaged:           len(s.damaged),
		RecentEvictions:   append([]EvictionRecord(nil), s.evictLog...),
	}
	for _, e := range s.pools {
		if e.pool != nil {
			st.Loaded++
			st.ResidentBytes += e.residentCost()
		}
		if e.mapped != nil {
			st.Mapped++
			st.MmapBytes += int64(len(e.mapped.data))
		}
		st.StrataCached += len(e.strata)
		st.Refs += e.refs
		st.Bytes += e.bytes
	}
	return st
}

// writeFileAtomicSync writes data to path durably: temp file in the same
// directory, fsync, rename into place, fsync the directory. (The WAL has an
// identical helper; duplicating ~30 lines keeps this package dependency-free
// of the journal, which itself depends on the session layer above us.)
func writeFileAtomicSync(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if err := tmp.Chmod(perm); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
