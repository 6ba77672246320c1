package experiments

import (
	"fmt"
	"testing"

	"cebinae/internal/fleet"
)

func TestExtensionsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulations")
	}
	var churn []ExtChurnResult
	for _, k := range []QdiscKind{FIFO, Cebinae} {
		churn = append(churn, ExtChurn(k, Quick))
	}
	fmt.Print(RenderExtChurn(churn))
	var udp []ExtBlindUDPResult
	for _, k := range []QdiscKind{FIFO, Cebinae} {
		udp = append(udp, ExtBlindUDP(k, Quick))
	}
	fmt.Print(RenderExtBlindUDP(udp))
	sec, err := FindSection(Quick, "ext-perflow")
	if err != nil {
		t.Fatal(err)
	}
	out, err := RunSection(sec, fleet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Print(out)
}
