// Package detsource_ignored exercises the justification directives: a
// reasoned //lint:ignore on the same or preceding line suppresses the
// finding. (Reasonless directives are rejected by the framework; see
// internal/analysis TestMalformedDirective.)
package detsource_ignored

import "time"

// The directive on the preceding line suppresses the finding.
func legitimatelyHostSide() time.Time {
	//lint:ignore detsource this helper runs on the host side of a test harness, never inside the simulated world
	return time.Now()
}

func sameLine() time.Time {
	return time.Now() //lint:ignore detsource host-side helper, never called from event handlers
}

// A directive for a different analyzer does not suppress this one.
func wrongAnalyzer() time.Time {
	//lint:ignore othercheck reason that does not apply here
	return time.Now() // want `wall-clock time\.Now in simulation code`
}
