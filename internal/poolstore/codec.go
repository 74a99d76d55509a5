package poolstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math"
	"regexp"
)

// Binary columnar pool encoding. The format is canonical — one pool has
// exactly one encoding — which is what makes the SHA-256 of the encoded
// bytes a content address: uploading the same pool twice, in either JSON or
// binary form, always lands on the same ID.
//
// Version 2 (current, written by Encode):
//
//	magic   [8]byte  "OASISPL2"
//	count   uint64   little-endian number of pairs (> 0)
//	crcHdr  uint32   CRC-32C (Castagnoli) of the 16 bytes above
//	pad     [4]byte  zero — brings the header to 24 bytes so the scores
//	        section starts 8-byte aligned; required for the zero-copy read
//	        path, which aliases the scores of a page-aligned mmap directly
//	        as []float64 (a misaligned float64 slice would be undefined
//	        behaviour, and trips checkptr under the race detector)
//	scores  count × 8 bytes, math.Float64bits little-endian
//	crcS    uint32   CRC-32C of the scores section
//	preds   ⌈count/8⌉ bytes, pair i at bit i%8 (LSB-first) of byte i/8;
//	        trailing pad bits of the last byte are zero
//	crcP    uint32   CRC-32C of the preds section
//
// Version 1 ("OASISPL1") is identical except the header stops after crcHdr
// (20 bytes, scores misaligned). Decode and the store still read v1 files —
// the content address is the hash of the bytes as stored, so a v1 file keeps
// its v1 ID forever — but v1 pools always take the decode path, never the
// mmap alias.
//
// Every section carries its own CRC so a flipped bit is pinned to a section
// (and detected without hashing the whole file), and the total length is a
// pure function of count, so a decoder sizes its allocations from bytes it
// has already verified — a hostile length can never force an allocation
// larger than the payload actually carried.
//
// Compared to the JSON upload form (~18 bytes/pair), the binary form is
// 8.125 bytes/pair plus 32 bytes of framing: a 1M-pair pool is ~8.1 MiB.

const (
	codecMagic   = "OASISPL2"
	codecMagicV1 = "OASISPL1"
	// codecCRCEnd is where the header CRC's coverage ends (magic + count),
	// identical in both versions.
	codecCRCEnd = 16
	// codecHeaderSize is the v2 header: magic + count + header CRC + 4 pad
	// bytes, sized so the scores section starts at an 8-byte boundary.
	codecHeaderSize   = codecCRCEnd + 4 + 4
	codecHeaderSizeV1 = codecCRCEnd + 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// idPattern is the shape of a pool ID: the lowercase hex SHA-256 of the
// pool's canonical encoding.
var idPattern = regexp.MustCompile(`^[0-9a-f]{64}$`)

// ValidID reports whether id has the shape of a pool content address.
func ValidID(id string) bool { return idPattern.MatchString(id) }

// encodedSize returns the canonical (v2) encoding's total length for n pairs.
func encodedSize(n int) int { return sectionsSize(n) + codecHeaderSize }

// sectionsSize is the post-header length: scores + crcS + preds + crcP.
func sectionsSize(n int) int { return 8*n + 4 + (n+7)/8 + 4 }

// poolLayout locates the sections of one verified encoding. scoresOff is
// also the header size (20 for v1, 24 for v2).
type poolLayout struct {
	n         int
	scoresOff int
	aligned   bool // scores start 8-byte aligned (v2): mmap-aliasable
}

func (l poolLayout) scoresEnd() int { return l.scoresOff + 8*l.n }
func (l poolLayout) predsOff() int  { return l.scoresEnd() + 4 }
func (l poolLayout) predsEnd() int  { return l.predsOff() + (l.n+7)/8 }
func (l poolLayout) total() int     { return l.predsEnd() + 4 }

// parseHeader verifies the header prefix of an encoding (magic, header CRC,
// count bounds, v2 pad bytes) against the total length and returns the
// layout. data may be just the header or the whole encoding; limit is the
// full encoding's length (for the count bound and exact-size check).
func parseHeader(data []byte, limit int) (poolLayout, error) {
	if len(data) < codecHeaderSizeV1 {
		return poolLayout{}, fmt.Errorf("poolstore: pool encoding is %d bytes, shorter than the %d-byte header", len(data), codecHeaderSizeV1)
	}
	var lay poolLayout
	switch string(data[:8]) {
	case codecMagic:
		lay.scoresOff = codecHeaderSize
		lay.aligned = true
	case codecMagicV1:
		lay.scoresOff = codecHeaderSizeV1
	default:
		return poolLayout{}, fmt.Errorf("poolstore: bad magic %q", data[:8])
	}
	if len(data) < lay.scoresOff {
		return poolLayout{}, fmt.Errorf("poolstore: pool encoding is %d bytes, shorter than the %d-byte header", len(data), lay.scoresOff)
	}
	if got, want := crc32.Checksum(data[:codecCRCEnd], castagnoli), binary.LittleEndian.Uint32(data[codecCRCEnd:codecCRCEnd+4]); got != want {
		return poolLayout{}, fmt.Errorf("poolstore: header CRC mismatch")
	}
	if lay.aligned && (data[20] != 0 || data[21] != 0 || data[22] != 0 || data[23] != 0) {
		return poolLayout{}, fmt.Errorf("poolstore: non-zero header padding")
	}
	count := binary.LittleEndian.Uint64(data[8:codecCRCEnd])
	// The count is CRC-verified, but the file could still be truncated or
	// padded: the total length must match exactly. Bound count first so the
	// size arithmetic cannot overflow int on any platform.
	if count == 0 || count > uint64(limit)/8 {
		return poolLayout{}, fmt.Errorf("poolstore: pool declares %d pairs, impossible for a %d-byte encoding", count, limit)
	}
	lay.n = int(count)
	if limit != lay.total() {
		return poolLayout{}, fmt.Errorf("poolstore: pool of %d pairs must encode to %d bytes, got %d", lay.n, lay.total(), limit)
	}
	return lay, nil
}

// verifySections checks the scores and preds CRCs of a full encoding whose
// header parseHeader already verified.
func verifySections(data []byte, lay poolLayout) error {
	if got, want := crc32.Checksum(data[lay.scoresOff:lay.scoresEnd()], castagnoli), binary.LittleEndian.Uint32(data[lay.scoresEnd():]); got != want {
		return fmt.Errorf("poolstore: scores section CRC mismatch")
	}
	if got, want := crc32.Checksum(data[lay.predsOff():lay.predsEnd()], castagnoli), binary.LittleEndian.Uint32(data[lay.predsEnd():]); got != want {
		return fmt.Errorf("poolstore: preds section CRC mismatch")
	}
	return nil
}

// checkPadBits rejects set pad bits in the last preds byte: they would make
// the encoding non-canonical, so the same pool could carry two different
// content addresses.
func checkPadBits(lastPredsByte byte, n int) error {
	if n%8 != 0 && lastPredsByte>>(n%8) != 0 {
		return fmt.Errorf("poolstore: non-zero padding bits in the preds section")
	}
	return nil
}

// validatePool checks the (scores, preds) columns describe a well-formed
// pool: equal non-zero lengths and finite scores. It mirrors pool.Validate:
// a pool is checked here, where it enters the store, and session creates
// over it never check it again.
func validatePool(scores []float64, preds []bool) error {
	if len(scores) == 0 {
		return fmt.Errorf("poolstore: empty pool")
	}
	if len(scores) != len(preds) {
		return fmt.Errorf("poolstore: %d scores but %d predictions", len(scores), len(preds))
	}
	for i, s := range scores {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return fmt.Errorf("poolstore: non-finite score at %d", i)
		}
	}
	return nil
}

// Encode serialises the pool columns into the canonical binary form (v2).
func Encode(scores []float64, preds []bool) ([]byte, error) {
	if err := validatePool(scores, preds); err != nil {
		return nil, err
	}
	n := len(scores)
	buf := make([]byte, 0, encodedSize(n))
	buf = append(buf, codecMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	buf = append(buf, 0, 0, 0, 0) // alignment pad, see the format comment

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
	return buf, nil
}

// decodeScores extracts and validates the scores column of a CRC-verified
// encoding into a fresh slice.
func decodeScores(data []byte, lay poolLayout) ([]float64, error) {
	scores := make([]float64, lay.n)
	raw := data[lay.scoresOff:lay.scoresEnd()]
	for i := range scores {
		s := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("poolstore: non-finite score at %d", i)
		}
		scores[i] = s
	}
	return scores, nil
}

// decodePreds extracts the preds bitset of a CRC-verified encoding into a
// fresh bool slice, rejecting non-canonical pad bits.
func decodePreds(data []byte, lay poolLayout) ([]bool, error) {
	raw := data[lay.predsOff():lay.predsEnd()]
	if err := checkPadBits(raw[len(raw)-1], lay.n); err != nil {
		return nil, err
	}
	preds := make([]bool, lay.n)
	for i := range preds {
		preds[i] = raw[i/8]&(1<<(i%8)) != 0
	}
	return preds, nil
}

// Decode parses and fully verifies a canonical binary pool (either format
// version): magic, exact length, all three CRCs, zero pad bits/bytes, finite
// scores. It allocates fresh column slices, so the caller may retain them
// past the input buffer.
func Decode(data []byte) (scores []float64, preds []bool, err error) {
	lay, err := parseHeader(data, len(data))
	if err != nil {
		return nil, nil, err
	}
	if err := verifySections(data, lay); err != nil {
		return nil, nil, err
	}
	if scores, err = decodeScores(data, lay); err != nil {
		return nil, nil, err
	}
	if preds, err = decodePreds(data, lay); err != nil {
		return nil, nil, err
	}
	return scores, preds, nil
}

// contentID returns the content address of an encoded pool: the lowercase
// hex SHA-256 of its canonical bytes.
func contentID(encoded []byte) string {
	sum := sha256.Sum256(encoded)
	return hex.EncodeToString(sum[:])
}

// decodeHeader reads just the verified header of an encoded pool (either
// version), returning its pair count. size is the full file size, used for
// the exact-length check. Used to index on-disk pools without loading their
// columns.
func decodeHeader(data []byte, size int64) (pairs int, err error) {
	if size > math.MaxInt32*8 {
		return 0, fmt.Errorf("poolstore: pool file of %d bytes is too large", size)
	}
	lay, err := parseHeader(data, int(size))
	if err != nil {
		return 0, err
	}
	return lay.n, nil
}
