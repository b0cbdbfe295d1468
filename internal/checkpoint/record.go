package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Sum is the one integrity digest of the checkpoint tiers: CRC-32C, what
// object-store etags and ext4 metadata use for the same job. It is computed
// wherever bytes are written, read back, probed or reassembled from a
// stripe. The store's fault model is a single flipped bit or a truncation;
// a CRC catches every single-bit error (and every burst up to 32 bits), and
// every object's length is recorded beside its Sum, so 32 bits suffice —
// and the hardware instruction hashes at memory speed.
func Sum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// A metadata record (META, FMETA, multi-step META) is a 4-byte tag, its own
// total length, the fields, and a Sum trailer over everything before it —
// all little-endian, ints as 64-bit two's complement, strings and int lists
// prefixed by a 32-bit count. The length makes every truncation detectable
// and the trailer every bit flip, so a damaged record is ErrCorrupt, never
// a plausible-looking wrong value.

// newRecord starts a record with its tag and a placeholder for the length.
func newRecord(tag string) []byte { return append(append(make([]byte, 0, 64), tag...), 0, 0, 0, 0) }

func putInt(b []byte, vs ...int) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

func putU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

func putString(b []byte, s string) []byte { return append(putU32(b, uint32(len(s))), s...) }

func putInts(b []byte, vs []int) []byte { return putInt(putU32(b, uint32(len(vs))), vs...) }

// sealRecord fills in the length and appends the trailer.
func sealRecord(b []byte) []byte {
	binary.LittleEndian.PutUint32(b[4:], uint32(len(b)+4))
	return putU32(b, Sum(b))
}

// recordReader consumes a record's fields in the order they were put. A
// damaged record, or a read past the end, yields zero values and marks the
// reader bad; end turns that into the error.
type recordReader struct {
	b   []byte
	bad bool
}

// openRecord checks raw's tag, length and trailer and returns a reader
// over its fields.
func openRecord(raw []byte, tag string) *recordReader {
	n := len(raw)
	if n < 12 || string(raw[:4]) != tag || binary.LittleEndian.Uint32(raw[4:]) != uint32(n) ||
		binary.LittleEndian.Uint32(raw[n-4:]) != Sum(raw[:n-4]) {
		return &recordReader{bad: true}
	}
	return &recordReader{b: raw[8 : n-4]}
}

func (r *recordReader) take(n int) []byte {
	if n < 0 || n > len(r.b) {
		r.bad, r.b = true, nil
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *recordReader) int() int {
	if b := r.take(8); b != nil {
		return int(int64(binary.LittleEndian.Uint64(b)))
	}
	return 0
}

func (r *recordReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *recordReader) string() string { return string(r.take(int(r.u32()))) }

// ints stops at the first failed read, so a damaged count costs no more
// than the bytes that are there.
func (r *recordReader) ints() (out []int) {
	for n := r.u32(); n > 0 && !r.bad; n-- {
		out = append(out, r.int())
	}
	return out
}

// end closes the read: ErrCorrupt unless the record was intact, every
// field was there and nothing is left over.
func (r *recordReader) end() error {
	if r.bad || len(r.b) != 0 {
		return fmt.Errorf("%w: not an intact metadata record", ErrCorrupt)
	}
	return nil
}
