package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strconv"
	"strings"
	"sync"
)

// Rows is a list of integer tuples on the wire: answer sets, diff-frame
// rows and database tuples. AppendRows writes the bytes encoding/json
// writes for a [][]int, without reflection; encoding/json itself still
// encodes a Rows field by reflection, which beats a MarshalJSON method
// whose output it would scan again. Rows decodes what encoding/json
// decodes into a [][]int, to the same values and with the same type
// errors. A decoded Rows costs two allocations: all values share one
// flat backing array, and each row is a slice of it capped at its own
// length, so appending to a row copies it and never overwrites the
// next row.
type Rows [][]int

// UnmarshalJSON decodes b as encoding/json decodes a [][]int: null
// reads as nil (a null row as a nil row, a null value as 0), and a
// value that is not an int-sized integer is an *json.UnmarshalTypeError.
func (r *Rows) UnmarshalJSON(b []byte) error {
	p := parser{b: b}
	rows, err := p.rows()
	if err == nil {
		err = p.end()
	}
	if err != nil {
		return err
	}
	*r = rows
	return nil
}

// AppendRows appends rows to dst as encoding/json encodes a [][]int:
// nil encodes as null, an empty list as [].
func AppendRows[R ~[]int](dst []byte, rows []R) []byte {
	if rows == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, row := range rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendRow(dst, row)
	}
	return append(dst, ']')
}

// AppendRow appends one row to dst as encoding/json encodes a []int.
func AppendRow[R ~[]int](dst []byte, row R) []byte {
	if row == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, v := range row {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return append(dst, ']')
}

// DecodeRow decodes b as encoding/json decodes a []int. The values are
// appended to flat, and row is the appended part, capped at its length;
// grown is flat after the append. A null row reads as nil.
func DecodeRow(b []byte, flat []int) (row, grown []int, err error) {
	p := parser{b: b}
	start := len(flat)
	flat, null, err := p.row(flat)
	if err == nil {
		err = p.end()
	}
	if err != nil || null {
		return nil, flat, err
	}
	return flat[start:len(flat):len(flat)], flat, nil
}

// The Go types encoding/json names in the type errors of a [][]int.
var (
	typeRows = reflect.TypeOf([][]int(nil))
	typeRow  = reflect.TypeOf([]int(nil))
	typeInt  = reflect.TypeOf(0)
)

// errSyntax reports malformed JSON where encoding/json would report a
// *json.SyntaxError (whose message this package cannot construct).
var errSyntax = errors.New("api: malformed JSON rows")

// parser reads the rows grammar off b from i on. Every input it
// accepts, encoding/json accepts into a [][]int with the same values;
// everything else it rejects, with a type error where encoding/json's
// first type error would be, so a Rows field decoded inside an
// encoding/json document (which checks the syntax first) reports
// exactly what a [][]int field did.
type parser struct {
	b []byte
	i int
}

func (p *parser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// end accepts trailing whitespace only.
func (p *parser) end() error {
	p.ws()
	if p.i != len(p.b) {
		return errSyntax
	}
	return nil
}

// null consumes a null literal if one comes next.
func (p *parser) null() bool {
	if bytes.HasPrefix(p.b[p.i:], []byte("null")) {
		p.i += 4
		return true
	}
	return false
}

// mismatch is the type error for the value at p.i, which is not what
// typ wants. Like encoding/json, a number into an int names its
// literal.
func (p *parser) mismatch(typ reflect.Type) error {
	var what string
	switch c := p.b[p.i]; {
	case c == '"':
		what = "string"
	case c == '{':
		what = "object"
	case c == '[':
		what = "array"
	case c == 't' || c == 'f':
		what = "bool"
	case c == '-' || c >= '0' && c <= '9':
		what = "number"
		if typ == typeInt {
			j := p.i
			for j < len(p.b) && strings.IndexByte("+-.0123456789Ee", p.b[j]) >= 0 {
				j++
			}
			what += " " + string(p.b[p.i:j])
		}
	default:
		return errSyntax
	}
	return &json.UnmarshalTypeError{Value: what, Type: typ, Offset: int64(p.i)}
}

// maxInt is the magnitude bound of an int; -(maxInt+1) is also valid.
const maxInt = uint64(1)<<(strconv.IntSize-1) - 1

// value reads one int (null reads as 0).
func (p *parser) value() (int, error) {
	if p.null() {
		return 0, nil
	}
	start, neg := p.i, false
	if p.i < len(p.b) && p.b[p.i] == '-' {
		neg = true
		p.i++
	}
	if p.i == len(p.b) || p.b[p.i] < '0' || p.b[p.i] > '9' {
		if p.i = start; p.i == len(p.b) {
			return 0, errSyntax
		}
		return 0, p.mismatch(typeInt)
	}
	limit := maxInt
	if neg {
		limit++
	}
	var u uint64
	over := false
	if p.b[p.i] == '0' {
		p.i++
	} else {
		for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
			d := uint64(p.b[p.i] - '0')
			if u > (limit-d)/10 {
				over = true
			}
			u = u*10 + d
			p.i++
		}
	}
	if over || (p.i < len(p.b) && (p.b[p.i] == '.' || p.b[p.i] == 'e' || p.b[p.i] == 'E')) {
		p.i = start
		return 0, p.mismatch(typeInt)
	}
	if neg {
		return int(-u), nil // -u wraps to the right value at the bound, too
	}
	return int(u), nil
}

// row reads one row, appending its values to flat; null reports a null
// row.
func (p *parser) row(flat []int) (grown []int, null bool, err error) {
	p.ws()
	if p.i == len(p.b) {
		return flat, false, errSyntax
	}
	if p.null() {
		return flat, true, nil
	}
	if p.b[p.i] != '[' {
		return flat, false, p.mismatch(typeRow)
	}
	p.i++
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == ']' {
		p.i++
		return flat, false, nil
	}
	for {
		p.ws()
		v, err := p.value()
		if err != nil {
			return flat, false, err
		}
		flat = append(flat, v)
		p.ws()
		if p.i == len(p.b) {
			return flat, false, errSyntax
		}
		switch p.b[p.i] {
		case ',':
			p.i++
		case ']':
			p.i++
			return flat, false, nil
		default:
			return flat, false, errSyntax
		}
	}
}

// scratch holds a decode's values and row ends until their sizes are
// known; a row end of -1 marks a null row.
type scratch struct {
	vals, ends []int
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// rows reads a whole Rows value into one flat backing array.
func (p *parser) rows() (Rows, error) {
	p.ws()
	if p.i == len(p.b) {
		return nil, errSyntax
	}
	if p.null() {
		return nil, nil
	}
	if p.b[p.i] != '[' {
		return nil, p.mismatch(typeRows)
	}
	p.i++
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	vals, ends := sc.vals[:0], sc.ends[:0]
	defer func() { sc.vals, sc.ends = vals, ends }()
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == ']' {
		p.i++
		return Rows{}, nil
	}
	for {
		var null bool
		var err error
		if vals, null, err = p.row(vals); err != nil {
			return nil, err
		}
		if null {
			ends = append(ends, -1)
		} else {
			ends = append(ends, len(vals))
		}
		p.ws()
		if p.i == len(p.b) {
			return nil, errSyntax
		}
		if p.b[p.i] == ']' {
			p.i++
			break
		}
		if p.b[p.i] != ',' {
			return nil, errSyntax
		}
		p.i++
	}
	flat := make([]int, len(vals))
	copy(flat, vals)
	out := make(Rows, len(ends))
	start := 0
	for k, e := range ends {
		if e >= 0 {
			out[k] = flat[start:e:e]
			start = e
		}
	}
	return out, nil
}

// unmarshalRowsObject decodes the JSON object b into v, a pointer to a
// response struct without methods, whose Rows fields are the members
// named in names; dst holds those fields in the same order. The named
// members are decoded by the rows parser straight off b; the other
// members are copied out and decoded by encoding/json in one call, so
// encoding/json never scans the rows. Anything off the plain path (an
// escaped key, a key naming a Rows field in another case, malformed
// JSON, a type error) falls back to encoding/json on the whole of b,
// which then decides the outcome exactly as it would for the struct.
func unmarshalRowsObject(b []byte, v any, names []string, dst ...*Rows) error {
	fallback := func() error { return json.Unmarshal(b, v) }
	p := parser{b: b}
	p.ws()
	if p.null() {
		if p.end() != nil {
			return fallback()
		}
		return nil
	}
	if p.i == len(p.b) || p.b[p.i] != '{' {
		return fallback()
	}
	p.i++
	var (
		got  [2]Rows // a response has at most two Rows fields
		seen [2]bool
		rest []byte // the other members, as an object
	)
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == '}' {
		p.i++
		if p.end() != nil {
			return fallback()
		}
		return nil
	}
	for {
		p.ws()
		start := p.i
		key, ok := p.key()
		if !ok {
			return fallback()
		}
		p.ws()
		if p.i == len(p.b) || p.b[p.i] != ':' {
			return fallback()
		}
		p.i++
		k := -1
		for j, name := range names {
			if string(key) == name {
				k = j
			} else if bytes.EqualFold(key, []byte(name)) { // encoding/json's folded match
				return fallback()
			}
		}
		if k >= 0 {
			rows, err := p.rows()
			if err != nil {
				return fallback()
			}
			got[k], seen[k] = rows, true
		} else {
			if !p.skip() {
				return fallback()
			}
			if rest == nil {
				rest = append(rest, '{')
			} else {
				rest = append(rest, ',')
			}
			rest = append(rest, b[start:p.i]...)
		}
		p.ws()
		if p.i == len(p.b) {
			return fallback()
		}
		if p.b[p.i] == '}' {
			p.i++
			break
		}
		if p.b[p.i] != ',' {
			return fallback()
		}
		p.i++
	}
	if p.end() != nil {
		return fallback()
	}
	if rest != nil {
		if err := json.Unmarshal(append(rest, '}'), v); err != nil {
			return fallback()
		}
	}
	for k := range names {
		if seen[k] {
			*dst[k] = got[k]
		}
	}
	return nil
}

// key reads a member name without escapes.
func (p *parser) key() ([]byte, bool) {
	if p.i == len(p.b) || p.b[p.i] != '"' {
		return nil, false
	}
	start := p.i + 1
	for j := start; j < len(p.b); j++ {
		switch c := p.b[j]; {
		case c == '"':
			p.i = j + 1
			return p.b[start:j], true
		case c == '\\' || c < 0x20:
			return nil, false
		}
	}
	return nil, false
}

// skip steps over one member value without checking it (encoding/json
// checks it later), stopping at the ',' or '}' that ends it.
func (p *parser) skip() bool {
	depth := 0
	for ; p.i < len(p.b); p.i++ {
		switch p.b[p.i] {
		case '"':
			for p.i++; p.i < len(p.b) && p.b[p.i] != '"'; p.i++ {
				if p.b[p.i] == '\\' {
					p.i++
				}
			}
		case '[', '{':
			depth++
		case ']', '}':
			if depth == 0 {
				return true
			}
			depth--
		case ',':
			if depth == 0 {
				return true
			}
		}
	}
	return false
}

// The response types with Rows fields decode through
// unmarshalRowsObject; their plain twins carry the same fields without
// the method, for the encoding/json half.
type (
	plainEvalResponse     EvalResponse
	plainPeerEvalResponse PeerEvalResponse
	plainDiffFrame        DiffFrame
)

// UnmarshalJSON decodes an eval body as encoding/json would, with the
// answers read by the rows parser.
func (r *EvalResponse) UnmarshalJSON(b []byte) error {
	return unmarshalRowsObject(b, (*plainEvalResponse)(r), []string{"answers"}, &r.Answers)
}

// UnmarshalJSON decodes a peer-eval body as encoding/json would, with
// the answers read by the rows parser.
func (r *PeerEvalResponse) UnmarshalJSON(b []byte) error {
	return unmarshalRowsObject(b, (*plainPeerEvalResponse)(r), []string{"answers"}, &r.Answers)
}

// UnmarshalJSON decodes a diff frame as encoding/json would, with the
// added and removed rows read by the rows parser.
func (f *DiffFrame) UnmarshalJSON(b []byte) error {
	return unmarshalRowsObject(b, (*plainDiffFrame)(f), []string{"added", "removed"}, &f.Added, &f.Removed)
}

// AppendEvalResponse appends the JSON encoding of r with answers in
// place of r.Answers, byte-identical to encoding/json's, so a server
// can encode engine answers without converting them. The trace block
// is encoded by encoding/json.
func AppendEvalResponse[R ~[]int](dst []byte, r *EvalResponse, answers []R) ([]byte, error) {
	dst = append(dst, `{"answers":`...)
	dst = AppendRows(dst, answers)
	dst = append(dst, `,"count":`...)
	dst = strconv.AppendInt(dst, int64(r.Count), 10)
	if r.Trace != nil {
		tr, err := json.Marshal(r.Trace)
		if err != nil {
			return dst, err
		}
		dst = append(dst, `,"trace":`...)
		dst = append(dst, tr...)
	}
	return append(dst, '}'), nil
}

// AppendPeerEvalResponse appends the JSON encoding of r with answers in
// place of r.Answers, byte-identical to encoding/json's. The members
// after the answers are encoding/json's.
func AppendPeerEvalResponse[R ~[]int](dst []byte, r *PeerEvalResponse, answers []R) ([]byte, error) {
	head := *r
	head.Answers = nil // omitted, so the encoding starts at the next member
	rest, err := json.Marshal((*plainPeerEvalResponse)(&head))
	if err != nil {
		return dst, err
	}
	if len(answers) == 0 {
		return append(dst, rest...), nil
	}
	dst = append(dst, `{"answers":`...)
	dst = AppendRows(dst, answers)
	if len(rest) > 2 {
		dst = append(dst, ',')
	}
	return append(dst, rest[1:]...), nil
}

// AppendDiffFrame appends the JSON encoding of f with added and removed
// in place of f.Added and f.Removed, byte-identical to encoding/json's.
// The reason and the error are encoded by encoding/json.
func AppendDiffFrame[R ~[]int](dst []byte, f *DiffFrame, added, removed []R) []byte {
	dst = append(dst, `{"version":`...)
	dst = strconv.AppendUint(dst, f.Version, 10)
	if len(added) > 0 {
		dst = AppendRows(append(dst, `,"added":`...), added)
	}
	if len(removed) > 0 {
		dst = AppendRows(append(dst, `,"removed":`...), removed)
	}
	if f.Init {
		dst = append(dst, `,"init":true`...)
	}
	if f.Resync {
		dst = append(dst, `,"resync":true`...)
	}
	if f.Fallback {
		dst = append(dst, `,"fallback":true`...)
	}
	if f.Reason != "" {
		b, _ := json.Marshal(f.Reason) // a string always encodes
		dst = append(append(dst, `,"reason":`...), b...)
	}
	if f.Error != nil {
		b, _ := json.Marshal(f.Error) // strings and ints always encode
		dst = append(append(dst, `,"error":`...), b...)
	}
	return append(dst, '}')
}
