package core

// DebugDropHook, when set by tests, observes each drop: kind is "buffer" or
// "lbf"; srcPort identifies the flow in the test rigs.
var DebugDropHook func(kind string, srcPort uint16)
