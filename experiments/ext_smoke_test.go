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
	fmt.Print(renderSection(t, benchSection(t, Quick, "ext-perflow"), fleet.Options{}))
}
