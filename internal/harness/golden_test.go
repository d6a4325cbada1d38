package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"strconv"
	"testing"
)

// goldenScale1 is the committed record of a scale-1 RunAll under the
// default configuration. A change to it is a behaviour change: regenerate
// it from the document the failing test logs and name the change in
// CHANGES.md.
const goldenScale1 = "testdata/golden_scale1.json"

// goldenRun is one benchmark's entry: the headline counts in clear text
// plus digests of the full baseline and SPT RunStats (PerLoop included)
// and of the compiler's profile.
type goldenRun struct {
	Name           string `json:"name"`
	BaselineCycles int64  `json:"baseline_cycles"`
	BaselineInstrs int64  `json:"baseline_instrs"`
	SPTCycles      int64  `json:"spt_cycles"`
	SPTInstrs      int64  `json:"spt_instrs"`
	BaselineSHA256 string `json:"baseline_sha256"`
	SPTSHA256      string `json:"spt_sha256"`
	ProfileSHA256  string `json:"profile_sha256"`
}

func goldenDocument(runs []*BenchRun) []byte {
	out := make([]goldenRun, 0, len(runs))
	for _, r := range runs {
		out = append(out, goldenRun{
			Name:           r.Name,
			BaselineCycles: r.Baseline.Cycles,
			BaselineInstrs: r.Baseline.Instrs,
			SPTCycles:      r.SPT.Cycles,
			SPTInstrs:      r.SPT.Instrs,
			BaselineSHA256: canonicalSHA256(r.Baseline),
			SPTSHA256:      canonicalSHA256(r.SPT),
			ProfileSHA256:  canonicalSHA256(r.Compile.Profile),
		})
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

// checkGolden compares a scale-1 RunAll against the committed golden file
// byte for byte.
func checkGolden(t *testing.T, runs []*BenchRun) {
	t.Helper()
	want, err := os.ReadFile(goldenScale1)
	if err != nil {
		t.Fatal(err)
	}
	got := goldenDocument(runs)
	if bytes.Equal(got, want) {
		return
	}
	var wantRuns, gotRuns []goldenRun
	if err := json.Unmarshal(want, &wantRuns); err != nil {
		t.Fatalf("%s: %v", goldenScale1, err)
	}
	if err := json.Unmarshal(got, &gotRuns); err != nil {
		t.Fatal(err)
	}
	byName := map[string]goldenRun{}
	for _, w := range wantRuns {
		byName[w.Name] = w
	}
	for _, g := range gotRuns {
		if w, ok := byName[g.Name]; !ok || w != g {
			t.Errorf("%s: got %+v, golden %+v", g.Name, g, w)
		}
	}
	t.Errorf("scale-1 results differ from %s; regenerated document:\n%s", goldenScale1, got)
}

// canonicalSHA256 digests v through a deterministic encoding: struct fields
// in declaration order (unexported ones included), map entries sorted by
// their encoded keys, pointers followed.
func canonicalSHA256(v any) string {
	h := sha256.New()
	canonicalEncode(h, reflect.ValueOf(v))
	return hex.EncodeToString(h.Sum(nil))
}

func canonicalEncode(h io.Writer, v reflect.Value) {
	switch v.Kind() {
	case reflect.Invalid:
		h.Write([]byte("nil"))
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			h.Write([]byte("nil"))
			return
		}
		canonicalEncode(h, v.Elem())
	case reflect.Struct:
		h.Write([]byte("{"))
		for i := 0; i < v.NumField(); i++ {
			fmt.Fprintf(h, "%s:", v.Type().Field(i).Name)
			canonicalEncode(h, v.Field(i))
			h.Write([]byte(","))
		}
		h.Write([]byte("}"))
	case reflect.Map:
		type entry struct{ k, v []byte }
		entries := make([]entry, 0, v.Len())
		it := v.MapRange()
		for it.Next() {
			var kh, vh bytes.Buffer
			canonicalEncode(&kh, it.Key())
			canonicalEncode(&vh, it.Value())
			entries = append(entries, entry{kh.Bytes(), vh.Bytes()})
		}
		sort.Slice(entries, func(i, j int) bool { return bytes.Compare(entries[i].k, entries[j].k) < 0 })
		h.Write([]byte("map["))
		for _, e := range entries {
			h.Write(e.k)
			h.Write([]byte("="))
			h.Write(e.v)
			h.Write([]byte(","))
		}
		h.Write([]byte("]"))
	case reflect.Slice, reflect.Array:
		h.Write([]byte("["))
		for i := 0; i < v.Len(); i++ {
			canonicalEncode(h, v.Index(i))
			h.Write([]byte(","))
		}
		h.Write([]byte("]"))
	case reflect.String:
		h.Write([]byte(strconv.Quote(v.String())))
	case reflect.Bool:
		h.Write([]byte(strconv.FormatBool(v.Bool())))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		h.Write([]byte(strconv.FormatInt(v.Int(), 10)))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		h.Write([]byte(strconv.FormatUint(v.Uint(), 10)))
	case reflect.Float32, reflect.Float64:
		h.Write([]byte(strconv.FormatFloat(v.Float(), 'g', -1, 64)))
	default:
		panic("canonicalEncode: unsupported kind " + v.Kind().String())
	}
}
