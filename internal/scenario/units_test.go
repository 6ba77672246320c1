package scenario

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestRateForms pins the scalar vocabulary: every accepted JSON form of a
// Rate and the canonical spelling Emit chooses for it.
func TestRateForms(t *testing.T) {
	cases := []struct {
		in   string
		want Rate
		out  string // canonical marshalled form
	}{
		{`"10G"`, 10e9, `"10G"`},
		{`"2.5G"`, 2.5e9, `"2500M"`}, // 2500M is the largest exact integer suffix
		{`"100M"`, 100e6, `"100M"`},
		{`"64K"`, 64e3, `"64K"`},
		{`50000000`, 50e6, `"50M"`},
		{`1234.5`, 1234.5, `1234.5`}, // no exact suffix: plain number survives
	}
	for _, c := range cases {
		var r Rate
		if err := json.Unmarshal([]byte(c.in), &r); err != nil {
			t.Errorf("unmarshal %s: %v", c.in, err)
			continue
		}
		if r != c.want {
			t.Errorf("unmarshal %s = %v, want %v", c.in, float64(r), float64(c.want))
		}
		out, err := json.Marshal(r)
		if err != nil {
			t.Errorf("marshal %v: %v", float64(r), err)
			continue
		}
		if string(out) != c.out {
			t.Errorf("marshal %v = %s, want %s", float64(r), out, c.out)
		}
	}
	for _, bad := range []string{`"10Q"`, `"fast"`, `true`, `{}`} {
		var r Rate
		if err := json.Unmarshal([]byte(bad), &r); err == nil {
			t.Errorf("unmarshal %s: want error, got %v", bad, float64(r))
		}
	}
}

// TestDurForms pins duration decoding and its error text.
func TestDurForms(t *testing.T) {
	var d Dur
	if err := json.Unmarshal([]byte(`"40ms"`), &d); err != nil || d != 40e6 {
		t.Errorf(`"40ms" = %d, err %v`, d, err)
	}
	if err := json.Unmarshal([]byte(`1500000`), &d); err != nil || d != 1500000 {
		t.Errorf("1500000 = %d, err %v", d, err)
	}
	for _, bad := range []string{`"soon"`, `true`, `1.5`} {
		if err := json.Unmarshal([]byte(bad), &d); err == nil {
			t.Errorf("unmarshal %s: want error", bad)
		}
	}
}

// TestLoadAndParseErrors pins the non-golden error paths: a missing file,
// trailing JSON documents, and the file-path suffix on Load diagnostics.
func TestLoadAndParseErrors(t *testing.T) {
	if _, err := Load("testdata/does-not-exist.json"); err == nil || !strings.HasPrefix(err.Error(), "scenario: ") {
		t.Errorf("missing file: got %v", err)
	}
	if _, err := Parse([]byte(`{"version":1} {"version":1}`)); err == nil || !strings.Contains(err.Error(), "trailing data") {
		t.Errorf("trailing data: got %v", err)
	}
	if _, err := Load("testdata/diag/bad_version.json"); err == nil || !strings.Contains(err.Error(), "(in ") {
		t.Errorf("load of bad spec should name the file: got %v", err)
	}
}
