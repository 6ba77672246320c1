package scenario

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"cebinae/experiments"
)

// The spec's scalar vocabulary. Each type accepts the human form a config
// author writes ("10G", "40ms") alongside the raw number, and
// marshals back to one canonical rendering, so parse → emit → parse is
// the identity and canonical files are byte-stable under Emit.

// Rate is a bit rate in bits per second. JSON forms: a number (bps) or a
// string with a K/M/G decimal suffix ("100M", "2.5G"). Emission prefers
// the largest suffix that reproduces the value exactly and falls back to
// the plain number otherwise.
type Rate float64

var rateUnits = []struct {
	suffix string
	mult   float64
}{{"G", 1e9}, {"M", 1e6}, {"K", 1e3}}

// UnmarshalJSON implements json.Unmarshaler.
func (r *Rate) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := ParseRate(s)
		if err != nil {
			return err
		}
		*r = v
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return fmt.Errorf("rate wants a number or a suffixed string like \"100M\", got %s", strings.TrimSpace(string(b)))
	}
	*r = Rate(v)
	return nil
}

// ParseRate parses the string form of a Rate.
func ParseRate(s string) (Rate, error) {
	num, mult := s, 1.0
	for _, u := range rateUnits {
		if strings.HasSuffix(s, u.suffix) {
			num, mult = strings.TrimSuffix(s, u.suffix), u.mult
			break
		}
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("rate wants a number or a suffixed string like \"100M\", got %q", s)
	}
	return Rate(v * mult), nil
}

// MarshalJSON implements json.Marshaler.
func (r Rate) MarshalJSON() ([]byte, error) {
	v := float64(r)
	for _, u := range rateUnits {
		m := v / u.mult
		// Only use the suffix when the division is exact under round-trip,
		// so emitted files reload to the identical value.
		if m >= 1 && m == float64(int64(m)) && m*u.mult == v {
			return json.Marshal(strconv.FormatFloat(m, 'g', -1, 64) + u.suffix)
		}
	}
	return json.Marshal(v)
}

// Dur is a simulated duration. JSON forms: a Go duration string ("40ms",
// "1.5s") or a number of nanoseconds. Emission uses time.Duration's
// string form, which ParseDuration reads back exactly.
type Dur int64

// UnmarshalJSON implements json.Unmarshaler.
func (d *Dur) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("duration wants a Go duration string like \"40ms\" or nanoseconds, got %q", s)
		}
		*d = Dur(v)
		return nil
	}
	var v int64
	if err := json.Unmarshal(b, &v); err != nil {
		return fmt.Errorf("duration wants a Go duration string like \"40ms\" or nanoseconds, got %s", strings.TrimSpace(string(b)))
	}
	*d = Dur(v)
	return nil
}

// MarshalJSON implements json.Marshaler.
func (d Dur) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// Time converts to the simulator clock.
func (d Dur) Time() experiments.SimTime { return experiments.SimTime(d) }
