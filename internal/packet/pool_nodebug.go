//go:build !packetdebug

package packet

// poolDebug is a no-op in release builds; `go build -tags packetdebug`
// swaps in the poisoning guard from pool_debug.go.
type poolDebug struct{}

func (poolDebug) onGet(*Packet) {}
func (poolDebug) onPut(*Packet) {}

func (poolDebug) onRecycle([]Packet) {}
func (poolDebug) onSlab([]Packet)    {}
