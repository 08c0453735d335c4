package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"

	"cycledetect/internal/sweep"
)

// decodeQuery decodes body, one JSON value with nothing but whitespace
// after it, into req. It accepts what json.Decoder with
// DisallowUnknownFields accepts and decodes it to the same QueryRequest
// (FuzzDecodeQuery holds it to that), but it reads the body once. The
// objects are walked here, the edge list goes to the edge parser, and each
// other value goes to json.Unmarshal, which keeps encoding/json's number
// conversions, null handling and type errors. json.Decoder would scan the
// whole body to find the value's end, then scan it again to decode it,
// before EdgeList saw a byte of the list.
func decodeQuery(body []byte, req *QueryRequest) error {
	p := parser{data: body}
	if err := p.object(req, req.field); err != nil {
		return err
	}
	// json.Decoder would stop after the value, so a body that went on with
	// a second value would be answered as its first alone.
	return p.end()
}

// field decodes the value of the request member named key. A key selects
// a field as in encoding/json: by its exact name or, failing that, by one
// equal under Unicode case folding (strings.EqualFold), so "K" and the
// Kelvin sign both set k. No two of these names fold alike, so the first
// match is the one encoding/json would pick.
func (req *QueryRequest) field(p *parser, key string) error {
	switch {
	case strings.EqualFold(key, "graph"):
		return p.object(&req.Graph, req.Graph.field)
	case strings.EqualFold(key, "op"):
		return p.unmarshal(key, &req.Op)
	case strings.EqualFold(key, "k"):
		return p.unmarshal(key, &req.K)
	case strings.EqualFold(key, "eps"):
		return p.unmarshal(key, &req.Eps)
	case strings.EqualFold(key, "reps"):
		return p.unmarshal(key, &req.Reps)
	case strings.EqualFold(key, "seed"):
		return p.unmarshal(key, &req.Seed)
	case strings.EqualFold(key, "engine"):
		return p.unmarshal(key, &req.Engine)
	case strings.EqualFold(key, "edge"):
		return p.unmarshal(key, &req.Edge)
	}
	return unknownField(key)
}

// field decodes the value of the graph member named key, matched as in
// QueryRequest.field.
func (gr *GraphRequest) field(p *parser, key string) error {
	switch {
	case strings.EqualFold(key, "edges"):
		edges, err := p.edges()
		if err != nil {
			return err
		}
		gr.Edges = edges
		return nil
	case strings.EqualFold(key, "family"):
		return p.unmarshal(key, &gr.Family)
	case strings.EqualFold(key, "n"):
		return p.unmarshal(key, &gr.N)
	case strings.EqualFold(key, "m"):
		return p.unmarshal(key, &gr.M)
	case strings.EqualFold(key, "seed"):
		return p.unmarshal(key, &gr.Seed)
	}
	return unknownField(key)
}

// unknownField is json.Decoder's DisallowUnknownFields error.
func unknownField(key string) error {
	return fmt.Errorf("json: unknown field %q", key)
}

// parser is a cursor over one JSON text: a request body, or the edge list
// encoding/json hands EdgeList.UnmarshalJSON.
type parser struct {
	data []byte
	i    int
}

// syntaxError reports what the byte at the cursor is not.
func (p *parser) syntaxError(want string) error {
	if p.i >= len(p.data) {
		return fmt.Errorf("unexpected end of JSON input, want %s", want)
	}
	return fmt.Errorf("invalid character %q at offset %d, want %s", p.data[p.i], p.i, want)
}

// end checks that nothing but whitespace follows the value just read.
func (p *parser) end() error {
	if p.skipSpace(); p.i < len(p.data) {
		return p.syntaxError("nothing after the value")
	}
	return nil
}

// skipSpace moves the cursor past JSON whitespace.
func (p *parser) skipSpace() {
	i := p.i
	for i < len(p.data) && isSpace(p.data[i]) {
		i++
	}
	p.i = i
}

// isSpace reports whether c is JSON whitespace. All of it is at most ' ',
// so a byte of a token fails the first comparison.
func isSpace(c byte) bool {
	return c <= ' ' && (c == ' ' || c == '\t' || c == '\n' || c == '\r')
}

// consume skips whitespace and then the byte c, reporting whether c was next.
func (p *parser) consume(c byte) bool {
	p.skipSpace()
	if p.i < len(p.data) && p.data[p.i] == c {
		p.i++
		return true
	}
	return false
}

// object decodes the value at the cursor into v, a pointer to a struct. An
// object is walked here: field is called with each member's key once the
// cursor is on the member's value. Any other value goes to json.Unmarshal,
// which leaves the struct alone on null and refuses the rest.
func (p *parser) object(v any, field func(p *parser, key string) error) error {
	if !p.consume('{') {
		return json.Unmarshal(p.value(), v)
	}
	if p.consume('}') {
		return nil
	}
	for {
		if p.skipSpace(); p.i == len(p.data) || p.data[p.i] != '"' {
			return p.syntaxError("an object key")
		}
		start := p.i
		escaped, ok := p.skipString()
		if !ok {
			return p.syntaxError("the end of an object key")
		}
		// Without an escape the key is its raw bytes: encoding/json would
		// only replace invalid UTF-8, and that matches no field either way.
		key := string(p.data[start+1 : p.i-1])
		if escaped {
			if err := json.Unmarshal(p.data[start:p.i], &key); err != nil {
				return err
			}
		}
		if !p.consume(':') {
			return p.syntaxError("':' after an object key")
		}
		if err := field(p, key); err != nil {
			return err
		}
		if p.consume('}') {
			return nil
		}
		if !p.consume(',') {
			return p.syntaxError("',' or '}' after an object member")
		}
	}
}

// unmarshal decodes the value at the cursor, the value of the member
// named key, into v with json.Unmarshal.
func (p *parser) unmarshal(key string, v any) error {
	if err := json.Unmarshal(p.value(), v); err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	return nil
}

// value returns the bytes of the JSON value at the cursor and moves past
// them. It only finds where the value ends, counting brackets outside
// strings: json.Unmarshal checks the bytes, so whatever is malformed
// inside them is refused there, and what follows them is the caller's.
func (p *parser) value() []byte {
	p.skipSpace()
	start, depth := p.i, 0
	for p.i < len(p.data) {
		switch p.data[p.i] {
		case '"':
			p.skipString()
			if depth == 0 {
				return p.data[start:p.i]
			}
			continue
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 {
				return p.data[start:p.i]
			}
			if depth--; depth == 0 {
				p.i++
				return p.data[start:p.i]
			}
		case ',', ' ', '\t', '\n', '\r':
			if depth == 0 {
				return p.data[start:p.i]
			}
		}
		p.i++
	}
	return p.data[start:]
}

// skipString moves the cursor from a string's opening quote past its
// closing one, reporting whether the string holds an escape and whether
// it ends at all.
func (p *parser) skipString() (escaped, ok bool) {
	for p.i++; p.i < len(p.data); p.i++ {
		switch p.data[p.i] {
		case '\\':
			escaped = true
			p.i++
		case '"':
			p.i++
			return escaped, true
		}
	}
	p.i = len(p.data)
	return escaped, false
}

var errNotEdgeList = errors.New("edges: want an array of [u, v] pairs")

// edges reads null (a nil list) or an array of [u, v] pairs, each exactly
// two JSON integers in int's range, and refuses a list as soon as it
// passes sweep.MaxFamilyEdges elements. It checks the syntax itself, so it
// accepts exactly the lists encoding/json would decode into a [][2]int
// without padding, truncating or overflowing an element, and it never
// panics on other input.
func (p *parser) edges() (EdgeList, error) {
	p.skipSpace()
	if bytes.HasPrefix(p.data[p.i:], []byte("null")) {
		p.i += len("null")
		return nil, nil
	}
	if !p.consume('[') {
		return nil, errNotEdgeList
	}
	edges := EdgeList{} // non-nil: [] decodes to an empty list, as in encoding/json
	if p.consume(']') {
		return edges, nil
	}
	start := p.i
	for {
		var e [2]int
		ok := p.consume('[') && p.readInt(&e[0]) && p.consume(',') && p.readInt(&e[1]) && p.consume(']')
		if !ok {
			return nil, fmt.Errorf("edges[%d]: want [u, v], exactly two integers", len(edges))
		}
		if len(edges) == sweep.MaxFamilyEdges {
			return nil, fmt.Errorf("edges: more than the limit of %d edges", sweep.MaxFamilyEdges)
		}
		if len(edges) == cap(edges) {
			edges = p.grow(edges, start)
		}
		edges = append(edges, e)
		if p.consume(']') {
			return edges, nil
		}
		if !p.consume(',') {
			return nil, errNotEdgeList
		}
	}
}

// grow makes room in a full list for the edge just read, the list's
// elements so far having taken the bytes from start to the cursor. Past
// its first 64 edges, which append grows, the list is sized for the rest
// of the input at the bytes per edge read so far, so an upload's list is
// usually allocated once more and not in append's 1.25x steps; when that
// estimate falls short, the list doubles. The estimate scales only what
// has been read, so a list refused at its first element reserves nothing,
// and no list reserves past sweep.MaxFamilyEdges.
func (p *parser) grow(edges EdgeList, start int) EdgeList {
	n := len(edges)
	if n < 64 {
		return edges
	}
	read, unread := p.i-start, len(p.data)-p.i // read covers n+1 edges
	want := max(2*n, (n+1)+int(int64(n+1)*int64(unread)/int64(read)))
	return append(make(EdgeList, 0, min(want, sweep.MaxFamilyEdges)), edges...)
}

// readInt reads a JSON integer, -?(0|[1-9][0-9]*), into *dst, reporting
// false when there is none or it overflows int. A fraction or an exponent
// is left unread, so the caller's next consume fails on it.
func (p *parser) readInt(dst *int) bool {
	p.skipSpace()
	data, i := p.data, p.i // locals: the loop keeps them in registers
	neg := i < len(data) && data[i] == '-'
	limit := uint64(math.MaxInt)
	if neg {
		i++
		limit++ // -(MaxInt+1) is MinInt
	}
	start := i
	var u uint64
	for ; i < len(data); i++ {
		d := uint64(data[i] - '0')
		if d > 9 {
			break
		}
		if i-start >= 18 && u > (limit-d)/10 {
			return false // only a 19th digit can overflow int
		}
		u = u*10 + d
	}
	if i == start || (data[start] == '0' && i > start+1) {
		return false // no digits, or a leading zero
	}
	p.i = i
	*dst = int(u)
	if neg {
		*dst = -*dst
	}
	return true
}
