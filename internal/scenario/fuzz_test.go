package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzScenarioLoad pins the loader's two safety properties on arbitrary
// input: it never panics (errors are the only failure mode), and any
// input it accepts survives parse → emit → parse to a deeply-equal spec
// (no accepted spec is lossy or non-canonical enough to change meaning
// when rewritten).
func FuzzScenarioLoad(f *testing.F) {
	paths, _ := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	for _, path := range paths {
		if data, err := os.ReadFile(path); err == nil {
			f.Add(data)
		}
	}
	f.Add([]byte(`{"version":1,"name":"x","kind":"cross","cross":{"rate":"1G","delay":"1ms","buffer_bytes":1,"sends":[0],"packet_bytes":100,"payload_bytes":0,"until":"1ms"}}`))
	f.Add([]byte(`{"version":1,"name":"s","kind":"dumbbell","shards":2}`))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`{"version":1,"name":"y","kind":"dumbbell","dumbbell":{"rate":-1}}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"version":1,"name":"z","kind":"graph","graph":{"switches":[{"name":"a"}],"links":[{"a":"a","b":"ghost","rate":1,"delay":1}]}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		out, err := Emit(s)
		if err != nil {
			t.Fatalf("accepted spec fails to emit: %v", err)
		}
		s2, err := Parse(out)
		if err != nil {
			t.Fatalf("emitted spec fails to reload: %v\nemitted:\n%s", err, out)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("round-trip changed the spec\nfirst:  %+v\nsecond: %+v\nemitted:\n%s", s, s2, out)
		}
	})
}
