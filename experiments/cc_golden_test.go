package experiments

import (
	"crypto/sha256"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"cebinae/internal/tcp"
)

// TestCCGolden is the byte gate for every registered congestion control:
// two flows of the CCA at 20 ms against two NewReno flows at 40 ms through
// FIFO and through Cebinae, event count and digest of the rest of Report()
// against testdata/cc_golden.txt. DCTCP, Scalable, H-TCP and Illinois
// appear in no report section or scenario file, so this is the only place a
// change to their arithmetic shows as a byte difference. The digests were
// recorded at the commit before one event per packet-hop, and the report
// bytes behind them at the commit before the shared reno base; a change
// that moves only how many events a run takes moves only the events column.
func TestCCGolden(t *testing.T) {
	var b strings.Builder
	for _, cc := range tcp.CCNames() {
		for _, q := range []QdiscKind{FIFO, Cebinae} {
			r := Run(Scenario{
				BottleneckBps: 100e6,
				BufferBytes:   250 * 1500,
				Groups: []FlowGroup{
					{CC: cc, Count: 2, RTT: ms(20)},
					{CC: "newreno", Count: 2, RTT: ms(40)},
				},
				Duration: Seconds(5),
				Qdisc:    q,
				Seed:     7,
			})
			report := eventCount.ReplaceAllString(r.Report(), "events=")
			fmt.Fprintf(&b, "%s %s events=%d report=%x\n", cc, q, r.Events, sha256.Sum256([]byte(report)))
		}
	}
	checkGolden(t, "cc_golden.txt", b.String())
}

// eventCount is the engine event count a report prints.
var eventCount = regexp.MustCompile(`events=\d+`)
