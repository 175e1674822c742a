package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"mie/internal/core"
	"mie/internal/dpe"
	"mie/internal/vec"
)

// Binary payload codecs for the hot kinds: SearchReq, SearchResp,
// UpdateReq, GetReq, GetResp, Ack and ReplRecords. Every other payload
// travels as gob inside the binary envelope.
//
// A payload is its fields in declaration order, with no tags:
//
//	string, []byte   uvarint length, then the bytes
//	int, int64       zigzag varint
//	uint64           uvarint
//	uint32           4 bytes, big-endian
//	float64          IEEE 754 bits, 8 bytes, big-endian
//	token map        uvarint count, then per token (ascending byte order)
//	                 the 32 token bytes and its uvarint frequency
//	code list        uvarint count; when nonzero, the uvarint bit length
//	                 shared by every code, then each code's packed words,
//	                 each word 8 bytes little-endian (byte j of a code holds
//	                 bits 8j..8j+7), bits past the length zero
//	list of structs  uvarint count, then the elements
//
// The encoding is canonical: the decoder rejects non-minimal varints,
// unsorted or repeated tokens, nonzero tail bits, unknown flag bits and
// trailing bytes, so every payload it accepts re-encodes to the same bytes.
// A count is checked against the bytes left in the payload before anything
// is allocated for it. Empty and nil maps, slices and byte strings encode
// alike and decode as nil, as they did under gob.
//
// Decoded values never alias the frame. The codes of one message share one
// word arena (vec.BitVecsFromArena) and its byte fields one byte arena.

// binaryEncoder is implemented (on the value type) by payloads with a
// binary codec.
type binaryEncoder interface {
	appendBinary(b []byte) ([]byte, error)
}

// binaryDecoder is implemented (on the pointer type) by payloads with a
// binary codec.
type binaryDecoder interface {
	decodeBinary(d *decoder)
}

// Payload decode failures. They are static so that a rejected payload costs
// no allocation beyond what was decoded before the fault.
var (
	errTruncated = errors.New("truncated")
	errVarint    = errors.New("bad varint")
	errCount     = errors.New("element count exceeds the remaining bytes")
	errCodeBits  = errors.New("bad code bit length")
	errTailBits  = errors.New("code sets bits past its length")
	errTokens    = errors.New("tokens not in ascending order")
	errFlags     = errors.New("unknown flag bits")
	errTrailing  = errors.New("trailing bytes")
)

// decoder reads one payload. The first fault sticks: later reads return
// zero values and finish reports the fault.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

// finish reports the first fault, or trailing bytes.
func (d *decoder) finish() error {
	if d.err == nil && len(d.b) != 0 {
		d.err = errTrailing
	}
	return d.err
}

// take returns the next n bytes (n >= 0), aliasing the payload.
func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n > len(d.b) {
		d.fail(errTruncated)
		return nil
	}
	out := d.b[:n:n]
	d.b = d.b[n:]
	return out
}

// minimal reports whether the n-byte varint at the head of b is in its
// shortest form: only a one-byte varint may end in a zero byte.
func minimal(b []byte, n int) bool { return n == 1 || b[n-1] != 0 }

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 || !minimal(d.b, n) {
		d.fail(errVarint)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 || !minimal(d.b, n) {
		d.fail(errVarint)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) int() int { return int(d.varint()) }

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (d *decoder) float() float64 { return math.Float64frombits(d.u64()) }

// count reads an element count and rejects it when the remaining bytes
// cannot hold that many elements of at least minSize bytes each.
func (d *decoder) count(minSize int) int {
	c := d.uvarint()
	if d.err == nil && c > uint64(len(d.b)/minSize) {
		d.fail(errCount)
		return 0
	}
	return int(c)
}

// field reads a length-prefixed byte string, aliasing the payload.
func (d *decoder) field() []byte { return d.take(d.count(1)) }

func (d *decoder) str() string { return string(d.field()) }

// bytes reads a length-prefixed byte string into a fresh slice (nil when
// empty).
func (d *decoder) bytes() []byte {
	b := d.field()
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

// tokenEntryMin is the smallest encoded token entry: the token and a
// one-byte frequency.
const tokenEntryMin = len(dpe.Token{}) + 1

func (d *decoder) tokens() map[dpe.Token]uint64 {
	n := d.count(tokenEntryMin)
	if n == 0 {
		return nil
	}
	m := make(map[dpe.Token]uint64, n)
	var prev dpe.Token
	for i := 0; i < n && d.err == nil; i++ {
		var t dpe.Token
		copy(t[:], d.take(len(t)))
		if i > 0 && bytes.Compare(prev[:], t[:]) >= 0 {
			d.fail(errTokens)
			return nil
		}
		m[t] = d.uvarint()
		prev = t
	}
	return m
}

// codeList locates one encoded code list in the payload.
type codeList struct {
	count, bits int
	raw         []byte // count codes of ceil(bits/64) little-endian words
}

func (d *decoder) codeList() codeList {
	n := d.uvarint()
	if d.err != nil || n == 0 {
		return codeList{}
	}
	bits := d.uvarint()
	if d.err != nil {
		return codeList{}
	}
	if bits == 0 || bits > uint64(len(d.b))*8 {
		d.fail(errCodeBits)
		return codeList{}
	}
	size := (bits + 63) / 64 * 8
	if n > uint64(len(d.b))/size {
		d.fail(errCount)
		return codeList{}
	}
	raw := d.take(int(n * size))
	if tail := bits % 64; tail != 0 {
		mask := ^uint64(0) << tail
		for off := int(size) - 8; off < len(raw); off += int(size) {
			if binary.LittleEndian.Uint64(raw[off:])&mask != 0 {
				d.fail(errTailBits)
				return codeList{}
			}
		}
	}
	return codeList{count: int(n), bits: int(bits), raw: raw}
}

// codes reads the image and audio code lists of one message into one word
// arena.
func (d *decoder) codes() (image, audio []vec.BitVec) {
	a, b := d.codeList(), d.codeList()
	if d.err != nil {
		return nil, nil
	}
	split := len(a.raw) / 8
	arena := make([]uint64, split+len(b.raw)/8)
	if len(arena) == 0 {
		return nil, nil
	}
	for i := range arena[:split] {
		arena[i] = binary.LittleEndian.Uint64(a.raw[8*i:])
	}
	for i := range arena[split:] {
		arena[split+i] = binary.LittleEndian.Uint64(b.raw[8*i:])
	}
	return d.slice(arena[:split], a), d.slice(arena[split:], b)
}

func (d *decoder) slice(arena []uint64, l codeList) []vec.BitVec {
	if l.count == 0 {
		return nil
	}
	out, err := vec.BitVecsFromArena(arena, l.count, l.bits)
	if err != nil {
		d.fail(err)
	}
	return out
}

// arena copies byte fields into one buffer sized for all of them; each
// copy is capped so an append to one field cannot reach the next.
type arena []byte

func (a *arena) copy(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	start := len(*a)
	*a = append(*a, b...)
	return (*a)[start:len(*a):len(*a)]
}

// appendField appends a length-prefixed string or byte string.
func appendField[T string | []byte](b []byte, v T) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

func appendTokens(b []byte, m map[dpe.Token]uint64) []byte {
	b = binary.AppendUvarint(b, uint64(len(m)))
	if len(m) == 0 {
		return b
	}
	keys := make([]dpe.Token, 0, len(m))
	for t := range m {
		keys = append(keys, t)
	}
	slices.SortFunc(keys, func(x, y dpe.Token) int { return bytes.Compare(x[:], y[:]) })
	for _, t := range keys {
		b = append(b, t[:]...)
		b = binary.AppendUvarint(b, m[t])
	}
	return b
}

func appendCodes(b []byte, codes []vec.BitVec) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(codes)))
	if len(codes) == 0 {
		return b, nil
	}
	bits := codes[0].Len()
	if bits == 0 {
		return nil, errors.New("code of zero bits")
	}
	b = binary.AppendUvarint(b, uint64(bits))
	for _, c := range codes {
		if c.Len() != bits {
			return nil, fmt.Errorf("codes of mixed lengths %d and %d in one list", bits, c.Len())
		}
		b = c.AppendLittleEndian(b)
	}
	return b, nil
}

func appendErrFields(b []byte, msg string, code int, retryAfter int64) []byte {
	b = appendField(b, msg)
	b = binary.AppendVarint(b, int64(code))
	return binary.AppendVarint(b, retryAfter)
}

func (r SearchReq) appendBinary(b []byte) ([]byte, error) {
	q := &r.Query
	b = appendField(b, r.RepoID)
	b = appendTokens(b, q.TextTokens)
	b, err := appendCodes(b, q.ImageEncodings)
	if err == nil {
		b, err = appendCodes(b, q.AudioEncodings)
	}
	if err != nil {
		return nil, err
	}
	return binary.AppendVarint(b, int64(q.K)), nil
}

func (r *SearchReq) decodeBinary(d *decoder) {
	r.RepoID = d.str()
	r.Query.TextTokens = d.tokens()
	r.Query.ImageEncodings, r.Query.AudioEncodings = d.codes()
	r.Query.K = d.int()
}

func (r UpdateReq) appendBinary(b []byte) ([]byte, error) {
	u := &r.Update
	b = appendField(b, r.RepoID)
	b = appendField(b, u.ObjectID)
	b = appendField(b, u.Owner)
	b = appendField(b, u.Ciphertext)
	b = appendTokens(b, u.TextTokens)
	b, err := appendCodes(b, u.ImageEncodings)
	if err != nil {
		return nil, err
	}
	return appendCodes(b, u.AudioEncodings)
}

func (r *UpdateReq) decodeBinary(d *decoder) {
	r.RepoID = d.str()
	r.Update.ObjectID = d.str()
	r.Update.Owner = d.str()
	r.Update.Ciphertext = d.bytes()
	r.Update.TextTokens = d.tokens()
	r.Update.ImageEncodings, r.Update.AudioEncodings = d.codes()
}

func (r GetReq) appendBinary(b []byte) ([]byte, error) {
	b = appendField(b, r.RepoID)
	return appendField(b, r.ObjectID), nil
}

func (r *GetReq) decodeBinary(d *decoder) {
	r.RepoID = d.str()
	r.ObjectID = d.str()
}

func (r Ack) appendBinary(b []byte) ([]byte, error) {
	return appendErrFields(b, r.Err, r.Code, r.RetryAfterNanos), nil
}

func (r *Ack) decodeBinary(d *decoder) {
	r.Err, r.Code, r.RetryAfterNanos = d.str(), d.int(), d.varint()
}

func (r GetResp) appendBinary(b []byte) ([]byte, error) {
	b = appendErrFields(b, r.Err, r.Code, r.RetryAfterNanos)
	b = appendField(b, r.Ciphertext)
	return appendField(b, r.Owner), nil
}

func (r *GetResp) decodeBinary(d *decoder) {
	r.Err, r.Code, r.RetryAfterNanos = d.str(), d.int(), d.varint()
	r.Ciphertext = d.bytes()
	r.Owner = d.str()
}

// hitMin is the smallest encoded hit: two empty strings, the score and an
// empty ciphertext.
const hitMin = 1 + 1 + 8 + 1

func (r SearchResp) appendBinary(b []byte) ([]byte, error) {
	b = appendErrFields(b, r.Err, r.Code, r.RetryAfterNanos)
	b = binary.AppendUvarint(b, uint64(len(r.Hits)))
	for i := range r.Hits {
		h := &r.Hits[i]
		b = appendField(b, h.ObjectID)
		b = appendField(b, h.Owner)
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(h.Score))
		b = appendField(b, h.Ciphertext)
	}
	return b, nil
}

func (r *SearchResp) decodeBinary(d *decoder) {
	r.Err, r.Code, r.RetryAfterNanos = d.str(), d.int(), d.varint()
	r.Hits = nil
	n := d.count(hitMin)
	if n == 0 {
		return
	}
	hits := make([]core.SearchHit, n)
	total := 0
	for i := range hits {
		h := &hits[i]
		h.ObjectID = d.str()
		h.Owner = d.str()
		h.Score = d.float()
		h.Ciphertext = d.field()
		total += len(h.Ciphertext)
	}
	if d.err != nil {
		return
	}
	cts := make(arena, 0, total)
	for i := range hits {
		hits[i].Ciphertext = cts.copy(hits[i].Ciphertext)
	}
	r.Hits = hits
}

// recordMin is the smallest encoded replication record: four one-byte
// varints, the CRC and an empty payload.
const recordMin = 4 + 4 + 1

func (r ReplRecords) appendBinary(b []byte) ([]byte, error) {
	b = appendField(b, r.Err)
	b = binary.AppendVarint(b, int64(r.Code))
	b = appendField(b, r.RepoID)
	b = binary.AppendUvarint(b, uint64(len(r.Records)))
	for i := range r.Records {
		rec := &r.Records[i]
		b = binary.AppendUvarint(b, rec.Gen)
		b = binary.AppendUvarint(b, rec.Seq)
		b = binary.AppendVarint(b, int64(rec.Kind))
		b = binary.AppendVarint(b, rec.UnixNano)
		b = binary.BigEndian.AppendUint32(b, rec.CRC)
		b = appendField(b, rec.Payload)
	}
	return b, nil
}

func (r *ReplRecords) decodeBinary(d *decoder) {
	r.Err = d.str()
	r.Code = d.int()
	r.RepoID = d.str()
	r.Records = nil
	n := d.count(recordMin)
	if n == 0 {
		return
	}
	recs := make([]ReplRecord, n)
	total := 0
	for i := range recs {
		rec := &recs[i]
		rec.Gen = d.uvarint()
		rec.Seq = d.uvarint()
		rec.Kind = d.int()
		rec.UnixNano = d.varint()
		rec.CRC = d.u32()
		rec.Payload = d.field()
		total += len(rec.Payload)
	}
	if d.err != nil {
		return
	}
	payloads := make(arena, 0, total)
	for i := range recs {
		recs[i].Payload = payloads.copy(recs[i].Payload)
	}
	r.Records = recs
}
