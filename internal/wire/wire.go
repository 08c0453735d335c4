// Package wire defines the on-the-wire encoding of CONGEST messages.
//
// The CONGEST model limits messages to O(log n) bits per edge per round, so
// the simulator must be able to measure the exact size of every message. All
// algorithm messages are therefore serialized to byte slices with varint
// coding, and the simulator charges 8 bits per byte against the bandwidth
// budget.
//
// Two message kinds exist:
//
//   - Rank: Phase-1 announcement of an edge's random rank, sent by the
//     endpoint the edge is assigned to (the smaller-ID endpoint).
//   - Check: one Phase-2 round of Algorithm 1 for a candidate edge — the
//     candidate edge's rank, its endpoint IDs, and the set S of ID sequences.
//
// A Check header is laid out as kind, rank, U, V, sequence count. Rank leads
// because a receiver keeps only the lowest-rank check it hears (the §3.1
// preemption rule): CheckRank reads the kind byte and one varint, so a check
// that loses on rank is dropped without decoding its edge or its sequences.
//
// Every varint is decoded by one canonical decoder, uvarint (uvarintLong
// adds a one-load path for ranks): an encoding with a redundant trailing
// zero group (overlong) is rejected, so each decoder here accepts exactly
// the bytes its encoder produces.
//
// The Check codec has two tiers. The convenience tier (EncodeCheck /
// DecodeCheck) materializes a *Check with a [][]ID slice-of-slices and is
// meant for tests and cold paths. The simulation hot path uses the
// allocation-free tier instead: AppendCheck / AppendCheckArena encode into a
// caller-owned buffer, ParseCheck reads the header in place without touching
// the sequence bytes, and SeqIter walks the sequences reading varints in
// place, so a receiver appends the IDs it keeps straight into its own
// reused storage. DecodeCheck is built on the same three steps (ParseCheck,
// Validate, Iter), so both tiers accept exactly the same payloads. The
// decoders report damage with the sentinels ErrTruncated, ErrKind and
// ErrTrailing, so dropping a damaged payload allocates nothing either.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// ID is a node identifier. The paper gives nodes distinct IDs from a range
// polynomial in n, so an ID always fits in O(log n) bits; varint coding keeps
// small IDs small on the wire.
type ID = int64

// Message kind tags.
const (
	KindRank  = 1
	KindCheck = 2
	KindProbe = 3
)

// Rank is a Phase-1 rank announcement for the edge between sender and
// receiver (the edge is implicit in the port the message arrives on).
type Rank struct {
	Rank uint64
}

// Check is one Phase-2 message of Algorithm 1.
type Check struct {
	U, V ID     // candidate edge endpoints, U < V
	Rank uint64 // the edge's Phase-1 rank (used for preemption)
	Seqs [][]ID // the set S of ordered ID sequences
}

var (
	// ErrTruncated is returned when a payload ends mid-field.
	ErrTruncated = errors.New("wire: truncated message")
	// ErrKind is returned when a payload has an unexpected kind tag.
	ErrKind = errors.New("wire: unexpected message kind")
	// ErrTrailing is returned when a payload has bytes past its last field.
	ErrTrailing = errors.New("wire: trailing bytes")
)

// Span locates one sequence inside a SeqArena's flat ID buffer.
type Span struct {
	Off, Len int32
}

// SeqArena is a flat, reusable store of ID sequences: all IDs live in one
// buffer and each sequence is a Span into it. Decoding a round's worth of
// neighbor payloads into one arena replaces the per-message [][]ID
// slice-of-slices of the convenience codec, so steady-state rounds reuse the
// arena's capacity instead of allocating.
type SeqArena struct {
	IDs   []ID
	Spans []Span
}

// Reset empties the arena, keeping capacity.
func (a *SeqArena) Reset() {
	a.IDs = a.IDs[:0]
	a.Spans = a.Spans[:0]
}

// Len returns the number of stored sequences.
func (a *SeqArena) Len() int { return len(a.Spans) }

// Seq returns the i-th sequence. The slice aliases the arena and is valid
// until the next Reset or append.
func (a *SeqArena) Seq(i int) []ID {
	sp := a.Spans[i]
	return a.IDs[sp.Off : sp.Off+sp.Len]
}

// AppendWithTail stores a copy of seq extended by one trailing ID — the
// "append my own ID" step of Algorithm 1, done without building the extended
// sequence anywhere else first.
func (a *SeqArena) AppendWithTail(seq []ID, tail ID) {
	a.Spans = append(a.Spans, Span{Off: int32(len(a.IDs)), Len: int32(len(seq) + 1)})
	a.IDs = append(a.IDs, seq...)
	a.IDs = append(a.IDs, tail)
}

// AppendRank appends the serialization of r to buf.
func AppendRank(buf []byte, r Rank) []byte {
	buf = append(buf, KindRank)
	return binary.AppendUvarint(buf, r.Rank)
}

// EncodeRank serializes r.
func EncodeRank(r Rank) []byte {
	return AppendRank(make([]byte, 0, 1+binary.MaxVarintLen64), r)
}

// DecodeRank parses a Rank payload: the kind byte, one canonical varint,
// and nothing after it.
func DecodeRank(p []byte) (Rank, error) {
	if len(p) == 0 {
		return Rank{}, ErrTruncated
	}
	if p[0] != KindRank {
		return Rank{}, ErrKind
	}
	v, n := uvarintLong(p[1:])
	if n <= 0 {
		return Rank{}, ErrTruncated
	}
	if 1+n != len(p) {
		return Rank{}, ErrTrailing
	}
	return Rank{Rank: v}, nil
}

// AppendCheck appends the serialization of c to buf. Sequence IDs are encoded
// with unsigned varints; fake IDs (negative) are an internal device of
// Algorithm 1 and are never transmitted, so encoding panics if one leaks into
// a message — that would be an algorithm bug, not an I/O condition.
func AppendCheck(buf []byte, c *Check) []byte {
	buf = appendCheckHeader(buf, c.U, c.V, c.Rank, len(c.Seqs))
	for _, seq := range c.Seqs {
		buf = binary.AppendUvarint(buf, uint64(len(seq)))
		for _, id := range seq {
			buf = appendID(buf, id)
		}
	}
	return buf
}

// AppendCheckArena appends the serialization of a check message whose
// sequence set lives in a SeqArena. The wire format is byte-identical to
// AppendCheck on the equivalent *Check.
func AppendCheckArena(buf []byte, u, v ID, rank uint64, a *SeqArena) []byte {
	buf = appendCheckHeader(buf, u, v, rank, a.Len())
	for i := 0; i < a.Len(); i++ {
		seq := a.Seq(i)
		buf = binary.AppendUvarint(buf, uint64(len(seq)))
		for _, id := range seq {
			buf = appendID(buf, id)
		}
	}
	return buf
}

// appendCheckHeader writes kind, rank, U, V and the sequence count. The rank
// comes right after the kind byte so that CheckRank can apply the
// preemption rule from the first two fields alone; the fields are the same
// varints in any order, so the order does not change a payload's length.
func appendCheckHeader(buf []byte, u, v ID, rank uint64, nseqs int) []byte {
	buf = append(buf, KindCheck)
	buf = binary.AppendUvarint(buf, rank)
	buf = appendID(buf, u)
	buf = appendID(buf, v)
	return binary.AppendUvarint(buf, uint64(nseqs))
}

// EncodeCheck serializes c.
func EncodeCheck(c *Check) []byte {
	return AppendCheck(make([]byte, 0, 16+8*len(c.Seqs)*4), c)
}

func appendID(buf []byte, id ID) []byte {
	if id < 0 {
		panic(fmt.Sprintf("wire: negative (fake) ID %d must not be transmitted", id))
	}
	return binary.AppendUvarint(buf, uint64(id))
}

// CheckView is a zero-copy parse of a Check payload: the header fields plus
// an in-place cursor over the still-encoded sequence bytes. It lets a
// receiver apply the preemption rule (which needs only U, V and Rank) and
// discard losing checks without ever decoding their sequences.
type CheckView struct {
	U, V    ID
	Rank    uint64
	NumSeqs int
	body    []byte // the encoded sequences (everything after the count)
}

// CheckRank returns the rank of a Check payload, reading only the kind byte
// and the rank varint. ok is false for an empty payload, another kind or a
// truncated or overlong rank; the rest of the header is not looked at, so
// ParseCheck may still reject a payload CheckRank accepts.
func CheckRank(p []byte) (rank uint64, ok bool) {
	if len(p) < 2 || p[0] != KindCheck {
		return 0, false
	}
	r, n := uvarintLong(p[1:])
	return r, n > 0
}

// ParseCheck reads the header of a Check payload in place. The sequence
// bytes are not validated; call Validate or decode them to do that.
func ParseCheck(p []byte) (CheckView, error) {
	var v CheckView
	if len(p) == 0 {
		return v, ErrTruncated
	}
	if p[0] != KindCheck {
		return v, ErrKind
	}
	p = p[1:]
	rank, n := uvarintLong(p)
	if n <= 0 {
		return v, ErrTruncated
	}
	p = p[n:]
	v.Rank = rank
	var err error
	if v.U, p, err = readID(p); err != nil {
		return v, err
	}
	if v.V, p, err = readID(p); err != nil {
		return v, err
	}
	cnt, n := uvarint(p)
	if n <= 0 {
		return v, ErrTruncated
	}
	p = p[n:]
	if cnt > uint64(len(p))+1 {
		// Each sequence costs at least one byte (its length varint), so a
		// count beyond the remaining bytes means corruption; reject before
		// any caller sizes a buffer from it.
		return v, ErrTruncated
	}
	v.NumSeqs = int(cnt)
	v.body = p
	return v, nil
}

// Iter returns an in-place iterator over the view's sequences.
func (v *CheckView) Iter() SeqIter {
	return SeqIter{p: v.body, n: v.NumSeqs}
}

// Validate walks the sequence bytes without storing them and returns the
// error DecodeCheck would return: truncated fields or trailing bytes. A nil
// result guarantees that decoding the view cannot fail.
func (v *CheckView) Validate() error {
	it := v.Iter()
	for it.Skip() {
	}
	if it.err != nil {
		return it.err
	}
	if len(it.p) != 0 {
		return ErrTrailing
	}
	return nil
}

// SeqIter reads a view's sequences in place, one varint at a time.
type SeqIter struct {
	p   []byte
	n   int
	err error
}

// Next appends the next sequence's IDs to dst, returning the extended slice
// and true; it returns false when the sequences are exhausted or malformed
// (check Err).
func (it *SeqIter) Next(dst []ID) ([]ID, bool) {
	ln, ok := it.head()
	if !ok {
		return dst, false
	}
	for j := uint64(0); j < ln; j++ {
		v, k := uvarint(it.p)
		if k <= 0 {
			it.err = ErrTruncated
			return dst, false
		}
		it.p = it.p[k:]
		dst = append(dst, ID(v))
	}
	return dst, true
}

// Skip advances past the next sequence without decoding its IDs into a
// buffer; it returns false when exhausted or malformed (check Err).
func (it *SeqIter) Skip() bool {
	ln, ok := it.head()
	if !ok {
		return false
	}
	for j := uint64(0); j < ln; j++ {
		_, k := uvarint(it.p)
		if k <= 0 {
			it.err = ErrTruncated
			return false
		}
		it.p = it.p[k:]
	}
	return true
}

// head consumes the next sequence's length varint.
func (it *SeqIter) head() (uint64, bool) {
	if it.err != nil || it.n == 0 {
		return 0, false
	}
	it.n--
	ln, k := uvarint(it.p)
	if k <= 0 {
		it.err = ErrTruncated
		return 0, false
	}
	it.p = it.p[k:]
	if ln > uint64(len(it.p)) {
		it.err = ErrTruncated
		return 0, false
	}
	return ln, true
}

// Err returns the first malformation encountered, if any.
func (it *SeqIter) Err() error { return it.err }

// Trailing returns the number of unconsumed bytes; after an exhausted
// iteration a well-formed payload leaves zero.
func (it *SeqIter) Trailing() int { return len(it.p) }

// DecodeCheck parses a Check payload into a freshly allocated *Check. Cold
// paths and tests only; the simulator parses with ParseCheck and reads the
// sequences in place. The payload is validated before anything is sized
// from it, and each ID takes at least one byte, so the sequences share one
// buffer of at most one ID per body byte.
func DecodeCheck(p []byte) (*Check, error) {
	v, err := ParseCheck(p)
	if err != nil {
		return nil, err
	}
	if err := v.Validate(); err != nil {
		return nil, err
	}
	c := &Check{U: v.U, V: v.V, Rank: v.Rank, Seqs: make([][]ID, v.NumSeqs)}
	ids := make([]ID, 0, len(v.body))
	it := v.Iter()
	for i := range c.Seqs {
		off := len(ids)
		ids, _ = it.Next(ids)
		c.Seqs[i] = ids[off:len(ids):len(ids)]
	}
	return c, nil
}

func readID(p []byte) (ID, []byte, error) {
	v, n := uvarint(p)
	if n <= 0 {
		return 0, p, ErrTruncated
	}
	return ID(v), p[n:], nil
}

// uvarint decodes the unsigned varint at the start of p; it and
// uvarintLong, its one-load path for ranks, decode every varint of the
// package. It returns the value and the number of bytes read, or n <= 0
// when p does not start with a canonical varint: n == 0 when p ends inside
// it, n < 0 when it overflows 64 bits or is overlong. A varint is overlong
// when it has more than one byte and its last byte is 0x00, a redundant
// zero group that binary.AppendUvarint never writes. On every other input
// the result equals binary.Uvarint's.
//
// It is small enough to be inlined at every call site, and the first pass
// of its loop is the one-byte fast path: a one-byte varint, as most IDs of
// a small network are, costs a length check and one compare.
func uvarint(p []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, b := range p {
		if b < 0x80 {
			if i > 0 && b == 0 || i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, -(i + 1) // overlong, or overflows 64 bits
			}
			return x | uint64(b)<<s, i + 1
		}
		if i == binary.MaxVarintLen64-1 {
			return 0, -(i + 1) // overflows 64 bits
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, 0
}

// uvarintLong is uvarint for a field that is usually several bytes long:
// a rank, drawn from [1, n⁴], takes 4 or 5 bytes at n = 256. When the
// varint ends within the next eight bytes, one 64-bit load replaces the
// byte loop: the last byte is the first one whose high bit is clear, and
// three mask-and-shift steps pack the 7-bit groups into the value (two
// groups per 16-bit lane, then per 32-bit lane, then one). Any other input
// goes to uvarint, so both accept and return exactly the same.
func uvarintLong(p []byte) (uint64, int) {
	if len(p) < 8 {
		return uvarint(p)
	}
	x := binary.LittleEndian.Uint64(p)
	stop := ^x & 0x8080808080808080
	if stop == 0 {
		return uvarint(p) // 9 or 10 bytes, or overflow
	}
	n := bits.TrailingZeros64(stop)>>3 + 1
	if n > 1 && p[n-1] == 0 {
		return 0, -n // overlong
	}
	x &= 1<<(8*uint(n)) - 1 // n == 8 shifts out to 0, leaving all ones
	x = x&0x007f007f007f007f | (x&0x7f007f007f007f00)>>1
	x = x&0x00003fff00003fff | (x&0x3fff00003fff0000)>>2
	x = x&0x000000000fffffff | (x&0x0fffffff00000000)>>4
	return x, n
}

// Probe is the single-ID message of the Censor-Hillel-style triangle tester
// (the k=3 baseline this paper generalizes): "is this node your neighbor?".
type Probe struct {
	Node ID
}

// EncodeProbe serializes p.
func EncodeProbe(p Probe) []byte {
	buf := make([]byte, 0, 1+binary.MaxVarintLen64)
	buf = append(buf, KindProbe)
	return appendID(buf, p.Node)
}

// DecodeProbe parses a Probe payload.
func DecodeProbe(p []byte) (Probe, error) {
	if len(p) == 0 {
		return Probe{}, ErrTruncated
	}
	if p[0] != KindProbe {
		return Probe{}, ErrKind
	}
	id, rest, err := readID(p[1:])
	if err != nil {
		return Probe{}, err
	}
	if len(rest) != 0 {
		return Probe{}, ErrTrailing
	}
	return Probe{Node: id}, nil
}

// Kind returns the kind tag of a payload, or 0 for an empty payload.
func Kind(p []byte) byte {
	if len(p) == 0 {
		return 0
	}
	return p[0]
}
