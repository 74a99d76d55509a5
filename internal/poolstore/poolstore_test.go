package poolstore

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// testColumns builds a deterministic pool of n pairs.
func testColumns(n int, seed uint64) (scores []float64, preds []bool) {
	scores = make([]float64, n)
	preds = make([]bool, n)
	x := seed*2862933555777941757 + 3037000493
	for i := range scores {
		x = x*2862933555777941757 + 3037000493
		scores[i] = float64(x>>11) / (1 << 53)
		preds[i] = scores[i] >= 0.5
	}
	return scores, preds
}

func TestCodecRoundTrip(t *testing.T) {
	for _, n := range []int{1, 7, 8, 9, 1000} {
		scores, preds := testColumns(n, uint64(n))
		encoded, err := Encode(scores, preds)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(encoded) != encodedSize(n) {
			t.Fatalf("n=%d: encoded %d bytes, want %d", n, len(encoded), encodedSize(n))
		}
		gotScores, gotPreds, err := Decode(encoded)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		for i := range scores {
			if gotScores[i] != scores[i] || gotPreds[i] != preds[i] {
				t.Fatalf("n=%d: column mismatch at %d", n, i)
			}
		}
		// Canonical: re-encoding the decoded columns is byte-identical, so
		// the content address is stable across upload forms.
		re, err := Encode(gotScores, gotPreds)
		if err != nil {
			t.Fatal(err)
		}
		if contentID(re) != contentID(encoded) {
			t.Fatalf("n=%d: re-encoding changed the content address", n)
		}
	}
}

// damagedEncodings returns corrupt variants of one valid encoding, each of
// which every reader of the format must refuse. FuzzPoolDecode seeds its
// corpus from them.
func damagedEncodings(tb testing.TB) map[string][]byte {
	tb.Helper()
	scores, preds := testColumns(100, 3)
	encoded, err := Encode(scores, preds)
	if err != nil {
		tb.Fatal(err)
	}
	mut := func(mutate func([]byte)) []byte {
		c := append([]byte(nil), encoded...)
		mutate(c)
		return c
	}
	return map[string][]byte{
		"empty":          {},
		"short header":   encoded[:10],
		"bad magic":      mut(func(c []byte) { c[0] ^= 0xff }),
		"header bitflip": mut(func(c []byte) { c[12] ^= 1 }), // count byte: header CRC
		"score bitflip":  mut(func(c []byte) { c[codecHeaderSize+3] ^= 1 }),
		"pred bitflip":   mut(func(c []byte) { c[len(c)-5] ^= 0x01 }),
		"truncated":      encoded[:len(encoded)-1],
		"trailing junk":  append(append([]byte(nil), encoded...), 0),
		"CRC-valid NaN score": mut(func(c []byte) {
			binary.LittleEndian.PutUint64(c[codecHeaderSize:], math.Float64bits(math.NaN()))
			crc := crc32.Checksum(c[codecHeaderSize:codecHeaderSize+8*100], castagnoli)
			binary.LittleEndian.PutUint32(c[codecHeaderSize+8*100:], crc)
		}),
	}
}

func TestCodecRejectsDamage(t *testing.T) {
	for name, data := range damagedEncodings(t) {
		if _, _, err := Decode(data); err == nil {
			t.Errorf("%s: decode accepted corrupt encoding", name)
		}
	}
	// Non-finite scores must be rejected at the encoding end too.
	if _, err := Encode([]float64{math.NaN()}, []bool{true}); err == nil {
		t.Error("Encode accepted a NaN score")
	}
}

func TestCodecRejectsNonCanonicalPadding(t *testing.T) {
	scores, preds := testColumns(9, 5) // 9 pairs: 7 pad bits in the last preds byte
	encoded, err := Encode(scores, preds)
	if err != nil {
		t.Fatal(err)
	}
	c := append([]byte(nil), encoded...)
	predsOff := codecHeaderSize + 8*9 + 4
	c[predsOff+1] |= 0x80 // set a pad bit...
	crc := crc32.Checksum(c[predsOff:predsOff+2], castagnoli)
	binary.LittleEndian.PutUint32(c[predsOff+2:], crc) // ...and fix the CRC
	if _, _, err := Decode(c); err == nil || !strings.Contains(err.Error(), "padding") {
		t.Fatalf("decode of padded encoding: err = %v", err)
	}
}

func TestPutAcquireShareOneCopy(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	scores, preds := testColumns(500, 1)
	info, created, err := s.Put(scores, preds)
	if err != nil || !created {
		t.Fatalf("put: created=%v err=%v", created, err)
	}
	id := info.ID
	if info.Pairs != 500 || !info.Loaded {
		t.Fatalf("put info = %+v", info)
	}
	if !ValidID(id) {
		t.Fatalf("put returned malformed id %q", id)
	}
	// Same content re-put: dedup hit, same address.
	info2, created2, err := s.Put(scores, preds)
	if err != nil || created2 || info2.ID != id {
		t.Fatalf("re-put: id=%q created=%v err=%v", info2.ID, created2, err)
	}
	p1, err := s.Acquire(id)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.Acquire(id)
	if err != nil {
		t.Fatal(err)
	}
	// The single-copy contract: both references alias one backing array.
	if &p1.Scores[0] != &p2.Scores[0] || &p1.Preds[0] != &p2.Preds[0] {
		t.Fatal("two acquires returned distinct column copies")
	}
	if got := s.Refs(id); got != 2 {
		t.Fatalf("refs = %d, want 2", got)
	}
	st := s.Stats()
	if st.Pools != 1 || st.Loaded != 1 || st.Refs != 2 || st.DedupHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
	s.Release(id)
	s.Release(id)
	if got := s.Refs(id); got != 0 {
		t.Fatalf("refs after release = %d, want 0", got)
	}
	// Over-release is a no-op, not a negative count.
	s.Release(id)
	if got := s.Refs(id); got != 0 {
		t.Fatalf("refs after over-release = %d", got)
	}
}

func TestReloadAcrossReopenAndEviction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	scores, preds := testColumns(333, 9)
	putInfo, _, err := s.Put(scores, preds)
	if err != nil {
		t.Fatal(err)
	}
	id := putInfo.ID

	// A fresh store over the same directory indexes the pool without loading.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	info, err := s2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Pairs != 333 || info.Loaded {
		t.Fatalf("indexed info = %+v, want 333 pairs, not loaded", info)
	}
	p, err := s2.Acquire(id)
	if err != nil {
		t.Fatal(err)
	}
	for i := range scores {
		if p.Scores[i] != scores[i] || p.Preds[i] != preds[i] {
			t.Fatalf("reloaded column mismatch at %d", i)
		}
	}
	s2.Release(id)

	// Idle sweep evicts the columns; the next acquire reloads them.
	if n := s2.Sweep(0); n != 1 {
		t.Fatalf("sweep evicted %d, want 1", n)
	}
	if info, _ := s2.Get(id); info.Loaded {
		t.Fatal("pool still loaded after sweep")
	}
	if _, err := s2.Acquire(id); err != nil {
		t.Fatalf("acquire after eviction: %v", err)
	}
	// A referenced pool is never swept.
	if n := s2.Sweep(0); n != 0 {
		t.Fatalf("sweep evicted a referenced pool")
	}
	if st := s2.Stats(); st.Loads != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 loads, 1 eviction", st)
	}
}

func TestSweepHonoursIdleAge(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	s.now = func() time.Time { return now }
	scores, preds := testColumns(10, 2)
	putInfo, _, err := s.Put(scores, preds)
	if err != nil {
		t.Fatal(err)
	}
	id := putInfo.ID
	now = now.Add(time.Minute)
	if n := s.Sweep(time.Hour); n != 0 {
		t.Fatal("sweep evicted a pool idle for less than the threshold")
	}
	now = now.Add(2 * time.Hour)
	if n := s.Sweep(time.Hour); n != 1 {
		t.Fatal("sweep kept a pool idle past the threshold")
	}
	// Acquire+release resets the idle clock.
	if _, err := s.Acquire(id); err != nil {
		t.Fatal(err)
	}
	s.Release(id)
	if n := s.Sweep(time.Hour); n != 0 {
		t.Fatal("sweep ignored the refreshed idle clock")
	}
}

func TestRemoveSemantics(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	scores, preds := testColumns(50, 7)
	putInfo, _, err := s.Put(scores, preds)
	if err != nil {
		t.Fatal(err)
	}
	id := putInfo.ID
	if _, err := s.Acquire(id); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(id); !errors.Is(err, ErrInUse) {
		t.Fatalf("remove of referenced pool: err = %v, want ErrInUse", err)
	}
	s.Release(id)
	if err := s.Remove(id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Acquire(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("acquire after remove: err = %v, want ErrNotFound", err)
	}
	if err := s.Remove(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double remove: err = %v, want ErrNotFound", err)
	}
	if entries, _ := filepath.Glob(filepath.Join(dir, "*.pool")); len(entries) != 0 {
		t.Fatalf("pool file survived remove: %v", entries)
	}
}

func TestMemoryOnlyStore(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	scores, preds := testColumns(20, 4)
	putInfo, _, err := s.Put(scores, preds)
	if err != nil {
		t.Fatal(err)
	}
	id := putInfo.ID
	// A memory-only store never evicts: the columns are the only copy.
	if n := s.Sweep(0); n != 0 {
		t.Fatal("memory-only store evicted its only copy")
	}
	if _, err := s.Acquire(id); err != nil {
		t.Fatal(err)
	}
}

func TestAcquireDetectsTamperedFile(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	scores, preds := testColumns(64, 11)
	putInfo, _, err := s.Put(scores, preds)
	if err != nil {
		t.Fatal(err)
	}
	id := putInfo.ID
	path := filepath.Join(dir, id+poolFileSuffix)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Truncation: caught on reload.
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Acquire(id); err == nil {
		t.Fatal("acquire loaded a truncated pool file")
	}

	// Hash mismatch: a structurally valid pool stored under the wrong
	// address (every CRC passes; only the content hash catches it).
	otherScores, otherPreds := testColumns(64, 12)
	otherEncoded, err := Encode(otherScores, otherPreds)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, otherEncoded, 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s3.Acquire(id); err == nil || !strings.Contains(err.Error(), "content verification") {
		t.Fatalf("acquire of hash-mismatched pool: err = %v", err)
	}

	// Deleted file: deterministic error, not a panic. (The original store s
	// still holds the columns in memory and would legitimately serve them;
	// s3 never managed a load, so it must hit the missing file.)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, err := s3.Acquire(id); err == nil {
		t.Fatal("acquire resolved a deleted pool file")
	}
}

// TestOpenQuarantinesDamagedFiles: a pool file with an unreadable header
// must not keep the store (and with it the whole server) from opening —
// it is skipped, reported via Damaged, and left on disk; healthy pools
// stay fully usable.
func TestOpenQuarantinesDamagedFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	scores, preds := testColumns(40, 21)
	info, _, err := s.Put(scores, preds)
	if err != nil {
		t.Fatal(err)
	}
	// A second pool whose header we smash.
	otherScores, otherPreds := testColumns(40, 22)
	broken, _, err := s.Put(otherScores, otherPreds)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, broken.ID+poolFileSuffix)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[3] ^= 0xff // magic byte
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("open with a damaged pool file: %v", err)
	}
	if got := s2.Damaged(); len(got) != 1 || got[0] != broken.ID+poolFileSuffix {
		t.Fatalf("damaged = %v", got)
	}
	if st := s2.Stats(); st.Damaged != 1 || st.Pools != 1 {
		t.Fatalf("stats = %+v, want 1 damaged, 1 healthy", st)
	}
	// The healthy pool still resolves; the damaged one is simply not found.
	if _, err := s2.Acquire(info.ID); err != nil {
		t.Fatalf("healthy pool unusable: %v", err)
	}
	if _, err := s2.Acquire(broken.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("damaged pool: err = %v, want ErrNotFound", err)
	}
	// The file was quarantined, not deleted.
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("quarantined file was removed: %v", err)
	}
}

// TestPutDoesNotAliasCallerSlices: the registered shared columns must be
// the store's own copy — a caller mutating its buffers after Put/Intern
// cannot corrupt what sessions sample against.
func TestPutDoesNotAliasCallerSlices(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	scores, preds := testColumns(30, 23)
	want0 := scores[0]
	info, _, err := s.Put(scores, preds)
	if err != nil {
		t.Fatal(err)
	}
	scores[0] = -999 // caller reuses its buffer
	preds[0] = !preds[0]
	p, err := s.Acquire(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p.Scores[0] != want0 {
		t.Fatalf("Put aliased the caller's slice: shared score[0] = %v", p.Scores[0])
	}
	id2, release, err := s.Intern(scores, preds) // distinct content now
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	scores[1] = -777
	p2, err := s.Acquire(id2)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Scores[1] == -777 {
		t.Fatal("Intern aliased the caller's slice")
	}
}

func TestBinaryAndJSONUploadsShareOneAddress(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	scores, preds := testColumns(77, 13)
	encoded, err := Encode(scores, preds)
	if err != nil {
		t.Fatal(err)
	}
	idBin, created, err := s.PutEncoded(encoded)
	if err != nil || !created {
		t.Fatalf("binary put: created=%v err=%v", created, err)
	}
	infoCols, created, err := s.Put(scores, preds)
	if err != nil || created {
		t.Fatalf("column put after binary put: created=%v err=%v", created, err)
	}
	if idBin.ID != infoCols.ID {
		t.Fatalf("binary and column uploads disagree: %q vs %q", idBin.ID, infoCols.ID)
	}
}

func TestConcurrentAcquireReleaseSingleLoad(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	scores, preds := testColumns(2048, 17)
	putInfo, _, err := s.Put(scores, preds)
	if err != nil {
		t.Fatal(err)
	}
	id := putInfo.ID
	// Reopen so the first acquires race on a cold entry.
	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p, err := s.Acquire(id)
				if err != nil {
					t.Error(err)
					return
				}
				if p.N() != 2048 {
					t.Errorf("pool has %d pairs", p.N())
					return
				}
				s.Release(id)
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.Loads != 1 {
		t.Fatalf("racing acquires loaded the pool %d times, want 1", st.Loads)
	}
	if st.Refs != 0 {
		t.Fatalf("refs = %d after balanced acquire/release", st.Refs)
	}
}
