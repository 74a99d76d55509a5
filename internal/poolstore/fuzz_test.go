package poolstore

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// FuzzPoolDecode feeds untrusted bytes to both readers of the pool format:
// the upload path (PutEncoded, behind POST /v1/pools) and a cold load of the
// same bytes as a pool file, once through the mmap path and once through the
// streaming decode. Neither may panic. An accepted upload must be the
// canonical encoding of the columns it decoded to, or one pool could answer
// to two content addresses. The two load paths must agree: both fail, or
// both return identical columns.
func FuzzPoolDecode(f *testing.F) {
	for _, data := range damagedEncodings(f) {
		f.Add(data)
	}
	for _, n := range []int{1, 9, 100} {
		scores, preds := testColumns(n, uint64(n))
		encoded, err := Encode(scores, preds)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(encoded)
		f.Add(encodeV1(f, scores, preds))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		mem, err := Open("")
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := mem.PutEncoded(data); err == nil {
			scores, preds, err := Decode(data)
			if err != nil {
				t.Fatalf("PutEncoded accepted bytes Decode refuses: %v", err)
			}
			again, err := Encode(scores, preds)
			if err != nil {
				t.Fatalf("re-encode of accepted pool: %v", err)
			}
			if !bytes.Equal(again, data) {
				t.Fatalf("PutEncoded accepted a non-canonical encoding (%d bytes, canonical %d)", len(data), len(again))
			}
		}

		dir := t.TempDir()
		id := contentID(data)
		if err := os.WriteFile(filepath.Join(dir, id+poolFileSuffix), data, 0o644); err != nil {
			t.Fatal(err)
		}
		load := func(decodeOnly bool) (*Pool, error) {
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			s.SetDecodeOnly(decodeOnly)
			p, err := s.Acquire(id)
			if err == nil {
				t.Cleanup(func() { s.Release(id) })
			}
			return p, err
		}
		mapped, errMapped := load(false)
		decoded, errDecoded := load(true)
		if (errMapped == nil) != (errDecoded == nil) {
			t.Fatalf("load paths disagree: mmap err %v, decode err %v", errMapped, errDecoded)
		}
		if errMapped != nil {
			return
		}
		if len(mapped.Scores) != len(decoded.Scores) || len(mapped.Preds) != len(decoded.Preds) {
			t.Fatalf("load paths disagree on size: %d/%d vs %d/%d",
				len(mapped.Scores), len(mapped.Preds), len(decoded.Scores), len(decoded.Preds))
		}
		for i := range mapped.Scores {
			if math.Float64bits(mapped.Scores[i]) != math.Float64bits(decoded.Scores[i]) || mapped.Preds[i] != decoded.Preds[i] {
				t.Fatalf("load paths disagree at pair %d", i)
			}
		}
	})
}
