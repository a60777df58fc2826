package api

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"cqapprox"
)

// rowsCases are encoder inputs: nil against empty at both levels,
// negatives and the int extremes.
var rowsCases = [][][]int{
	nil,
	{},
	{nil},
	{{}},
	{{}, nil, {}},
	{{0}},
	{{-1, 0, 1}, {math.MinInt64, math.MaxInt64}},
	{{1, 2}, {3, 4}, {5, 6}},
	{{-0}, {10, -10, 100}},
}

func TestRowsEncodeMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := append([][][]int(nil), rowsCases...)
	for i := 0; i < 200; i++ {
		cases = append(cases, randomRows(rng))
	}
	for _, rows := range cases {
		want, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendRows(nil, rows); string(got) != string(want) {
			t.Fatalf("AppendRows(%v) = %s, want %s", rows, got, want)
		}
		for _, row := range rows {
			want, _ := json.Marshal(row)
			if got := AppendRow(nil, row); string(got) != string(want) {
				t.Fatalf("AppendRow(%v) = %s, want %s", row, got, want)
			}
		}
	}
}

func randomRows(rng *rand.Rand) [][]int {
	if rng.Intn(10) == 0 {
		return nil
	}
	rows := make([][]int, rng.Intn(6))
	for i := range rows {
		if rng.Intn(8) == 0 {
			continue // a nil row
		}
		rows[i] = make([]int, rng.Intn(4))
		for j := range rows[i] {
			switch rng.Intn(4) {
			case 0:
				rows[i][j] = int(rng.Uint64())
			case 1:
				rows[i][j] = -rng.Intn(1000)
			default:
				rows[i][j] = rng.Intn(1000)
			}
		}
	}
	return rows
}

// decodeCases are decoder inputs around what encoding/json accepts
// into a [][]int.
var decodeCases = []string{
	`null`, ` null `, `nul`, `nulll`, `[]`, ` [ ] `, `[[]]`, `[null]`, `[[null]]`, `[[1,null,2]]`,
	`[[1,2],[3,4]]`, "\t[ [ 1 ,2 ]\n,\r[3]]\n", `[[-0]]`, `[[0]]`, `[[-]]`, `[[--1]]`, `[[+1]]`,
	`[[01]]`, `[[00]]`, `[[-01]]`, `[[1.0]]`, `[[1.5]]`, `[[1e3]]`, `[[1E3]]`, `[[1e-3]]`, `[[1.]]`, `[[.5]]`,
	`[[9223372036854775807]]`, `[[9223372036854775808]]`, `[[-9223372036854775808]]`, `[[-9223372036854775809]]`,
	`[[18446744073709551616]]`, `[[99999999999999999999999]]`,
	`[["1"]]`, `["1"]`, `"1"`, `1`, `true`, `[true]`, `[[false]]`, `{}`, `[{}]`, `[[{}]]`, `[[[]]]`, `[[[1]]]`,
	`[[1,2]`, `[[1,2]]]`, `[[1,2],]`, `[[1,,2]]`, `[[1 2]]`, `[,[1]]`, `[[1]`, `[`, ``, ` `, `]`, `[[1]] x`,
	`[[1]] [[2]]`, `[[1],[2`, `[["a\"]"]]`, `[["é"]]`, `[[1,"x"],[1.5]]`, `[[1.5],[1,"x"]]`, `[{"a":[1]}]`,
	`[[1],{}]`, `[[1],"s"]`, `[[1],3]`, `[[tru]]`, `[[nul]]`, `[[1]]` + "\x00", "[[\x001]]",
}

// TestRowsDecodeMatchesUnmarshal: the rows parser accepts exactly what
// encoding/json accepts into a [][]int, with equal values (nil and
// empty told apart), and names the same type errors inside a struct.
func TestRowsDecodeMatchesUnmarshal(t *testing.T) {
	for _, in := range decodeCases {
		checkDecode(t, []byte(in))
	}
}

func checkDecode(t *testing.T, in []byte) {
	t.Helper()
	var want [][]int
	wantErr := json.Unmarshal(in, &want)
	var got Rows
	gotErr := got.UnmarshalJSON(in)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: Rows.UnmarshalJSON error %v, encoding/json error %v", in, gotErr, wantErr)
	}
	if wantErr == nil && !reflect.DeepEqual([][]int(got), want) {
		t.Fatalf("%q: Rows decodes to %#v, encoding/json to %#v", in, got, want)
	}
	if wantErr == nil {
		if enc, _ := json.Marshal(want); string(AppendRows(nil, got)) != string(enc) {
			t.Fatalf("%q: re-encodes as %s, want %s", in, AppendRows(nil, got), enc)
		}
	}
	var te *json.UnmarshalTypeError
	if json.Valid(in) && errors.As(wantErr, &te) && (gotErr == nil || gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%q: type error %v, encoding/json says %v", in, gotErr, wantErr)
	}

	// The same value as a struct field, as the server decodes requests:
	// the error text (with its field context) and the values agree.
	doc := append(append([]byte(`{"r":`), in...), '}')
	var wantS struct{ R [][]int }
	var gotS struct{ R Rows }
	wantErr, gotErr = json.Unmarshal(doc, &wantS), json.Unmarshal(doc, &gotS)
	if (gotErr == nil) != (wantErr == nil) || (wantErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%q as a field: error %v, encoding/json error %v", in, gotErr, wantErr)
	}
	if wantErr == nil && !reflect.DeepEqual([][]int(gotS.R), wantS.R) {
		t.Fatalf("%q as a field: %#v, encoding/json %#v", in, gotS.R, wantS.R)
	}

	// One row, as a /v1/stream line.
	var wantRow []int
	wantErr = json.Unmarshal(in, &wantRow)
	row, _, gotErr := DecodeRow(in, make([]int, 3, 8))
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: DecodeRow error %v, encoding/json error %v", in, gotErr, wantErr)
	}
	if wantErr == nil && !reflect.DeepEqual(row, wantRow) {
		t.Fatalf("%q: DecodeRow gives %#v, encoding/json %#v", in, row, wantRow)
	}

	// In an eval body, decoded by its own UnmarshalJSON.
	checkEvalDecode(t, doc)
	checkEvalDecode(t, append(append([]byte(`{"count":2,"answers":`), in...), '}'))
}

// evalMirror is EvalResponse with the [][]int answers of old.
type evalMirror struct {
	Answers [][]int             `json:"answers"`
	Count   int                 `json:"count"`
	Trace   *cqapprox.ExecTrace `json:"trace,omitempty"`
}

func checkEvalDecode(t *testing.T, in []byte) {
	t.Helper()
	var want evalMirror
	wantErr := json.Unmarshal(in, &want)
	var got EvalResponse
	gotErr := got.UnmarshalJSON(in)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: EvalResponse error %v, encoding/json error %v", in, gotErr, wantErr)
	}
	if wantErr == nil && !reflect.DeepEqual(evalMirror{[][]int(got.Answers), got.Count, got.Trace}, want) {
		t.Fatalf("%q: EvalResponse %+v, encoding/json %+v", in, got, want)
	}
}

// The response decoders follow encoding/json on member order, unknown
// and case-folded names, escapes, duplicates and malformed objects.
func TestResponseDecodeMatchesUnmarshal(t *testing.T) {
	for _, in := range []string{
		`{"answers":[[1],[2]],"count":2}`,
		`{"count":2,"answers":[[1],[2]]}`,
		` { "answers" : [ [1] ] , "count" : 1 } `,
		`{"answers":[[1]],"count":1,"trace":{"mode":"yannakakis","total_ns":5}}`,
		`{"answers":[[1]],"extra":{"a":[1,{"b":"]}"}]},"count":1}`,
		`{"ANSWERS":[[1]]}`, `{"Answers":[[1]],"answers":[[2]]}`, `{"answers":[[2]],"Answers":[[1]]}`,
		`{"answers":[[3]]}`, `{"answers":[[1]],"answers":[[2]]}`, `{"Count":3,"answers":[]}`,
		`{"answers":null,"count":0}`, `{}`, `null`, ` null `, `[]`, `1`, `{"answers":[[1]]`, `{"answers":[[1]],}`,
		`{"answers" [[1]]}`, `{"answers":[[1]] "count":1}`, `{"answers":[[1]]} x`, `{"count":"x","answers":[[1]]}`,
		`{"count":1.5,"answers":[[1]]}`, `{"answers":[[1.5]],"count":"x"}`, `{"answers":[["x"]],"count":1}`,
		`{"trace":[1}`, `{"count":1 2}`, `{"answers":[[1]],"count":1,"trace":null}`, `{"":1}`, "{\"a\x01\":1}",
		`{"count":2,"answers":[[1],[2]]`, `{"x":"\"}","answers":[[7]]}`,
	} {
		checkEvalDecode(t, []byte(in))
	}

	// Diff frames carry two Rows fields.
	type frameMirror struct {
		Version  uint64     `json:"version"`
		Added    [][]int    `json:"added,omitempty"`
		Removed  [][]int    `json:"removed,omitempty"`
		Init     bool       `json:"init,omitempty"`
		Resync   bool       `json:"resync,omitempty"`
		Fallback bool       `json:"fallback,omitempty"`
		Reason   string     `json:"reason,omitempty"`
		Error    *ErrorInfo `json:"error,omitempty"`
	}
	for _, in := range []string{
		`{"version":3,"added":[[1,2]],"removed":[[3,4]],"fallback":true,"reason":"full replacement"}`,
		`{"removed":[[3]],"version":4,"added":[[1]]}`,
		`{"version":5,"error":{"code":"slow_consumer","message":"m"}}`,
		`{"version":5,"added":[[1]],"REMOVED":[[2]]}`,
		`{"version":"5","added":[[1]]}`,
	} {
		var want frameMirror
		wantErr := json.Unmarshal([]byte(in), &want)
		var got DiffFrame
		gotErr := got.UnmarshalJSON([]byte(in))
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: DiffFrame error %v, encoding/json error %v", in, gotErr, wantErr)
		}
		if wantErr == nil && !reflect.DeepEqual(frameMirror{got.Version, got.Added, got.Removed, got.Init, got.Resync, got.Fallback, got.Reason, got.Error}, want) {
			t.Fatalf("%q: DiffFrame %+v, encoding/json %+v", in, got, want)
		}
	}
}

// Rows decoded together share one backing array, so each is capped:
// appending to one row must copy it rather than overwrite the next.
func TestDecodedRowsAreCapped(t *testing.T) {
	var r Rows
	if err := r.UnmarshalJSON([]byte(`[[1,2],[],[3,4],null,[5]]`)); err != nil {
		t.Fatal(err)
	}
	for i := range r {
		if cap(r[i]) != len(r[i]) {
			t.Fatalf("row %d: len %d, cap %d", i, len(r[i]), cap(r[i]))
		}
	}
	_ = append(r[0], 99)
	_ = append(r[1], 98)
	r[1] = append(r[1], 97)
	if want := (Rows{{1, 2}, {97}, {3, 4}, nil, {5}}); !reflect.DeepEqual(r, want) {
		t.Fatalf("after appends: %v, want %v", r, want)
	}

	flat := make([]int, 0, 8)
	a, flat, _ := DecodeRow([]byte(`[1,2]`), flat)
	b, _, _ := DecodeRow([]byte(`[3]`), flat)
	_ = append(a, 99)
	if b[0] != 3 || cap(a) != 2 {
		t.Fatalf("stream rows share storage: a=%v (cap %d) b=%v", a, cap(a), b)
	}
}

// The body encoders write exactly encoding/json's bytes for the same
// struct with the rows in place.
func TestBodyEncodersMatchMarshal(t *testing.T) {
	trace := &cqapprox.ExecTrace{Mode: "yannakakis", Parallelism: 1, TotalNS: 1234}
	for _, rows := range rowsCases {
		for _, tr := range []*cqapprox.ExecTrace{nil, trace} {
			r := EvalResponse{Count: len(rows), Trace: tr}
			got, err := AppendEvalResponse(nil, &r, rows)
			r.Answers = rows
			if want := mustMarshal(t, r); err != nil || string(got) != want {
				t.Fatalf("AppendEvalResponse = %s (%v), want %s", got, err, want)
			}
		}
		for _, r := range []PeerEvalResponse{
			{},
			{Result: true},
			{Count: 3, Estimate: 2.5e-7, Estimated: true, Mode: "estimate<&>", Samples: 7, Batches: 1},
			{Count: math.MaxUint64, Estimate: 1e21, Mode: "exact-dp"},
		} {
			got, err := AppendPeerEvalResponse(nil, &r, rows)
			r.Answers = rows
			if want := mustMarshal(t, r); err != nil || string(got) != want {
				t.Fatalf("AppendPeerEvalResponse = %s (%v), want %s", got, err, want)
			}
		}
		for _, f := range []DiffFrame{
			{},
			{Version: math.MaxUint64, Init: true},
			{Version: 3, Resync: true, Fallback: true, Reason: "<replacement> &   \xff"},
			{Version: 4, Error: &ErrorInfo{Code: CodeSlowConsumer, Message: "fell behind <now>", Line: 1, Col: 2}},
		} {
			got := AppendDiffFrame(nil, &f, rows, rowsCases[len(rowsCases)-1])
			f.Added, f.Removed = rows, rowsCases[len(rowsCases)-1]
			if want := mustMarshal(t, f); string(got) != want {
				t.Fatalf("AppendDiffFrame = %s, want %s", got, want)
			}
		}
	}
}

func mustMarshal(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// FuzzRowsCodec: on any input, the rows parser, DecodeRow and the
// eval-body decoder accept exactly what encoding/json accepts, decode
// to the same values, and re-encode to encoding/json's bytes.
func FuzzRowsCodec(f *testing.F) {
	for _, in := range decodeCases {
		f.Add([]byte(in))
	}
	f.Add([]byte(`[[-9223372036854775808,9223372036854775807],[],null,[0]]`))
	f.Fuzz(func(t *testing.T, in []byte) {
		checkDecode(t, in)
		if strings.HasPrefix(strings.TrimSpace(string(in)), "{") {
			checkEvalDecode(t, in)
		}
	})
}
