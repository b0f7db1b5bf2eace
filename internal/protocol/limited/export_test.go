package limited

import "dircc/internal/coherent"

// NewBDroppingBroadcast returns a Dir_iB mutant whose overflow branch
// forgets the broadcast bit: the overflowing reader's copy goes
// unrecorded, so the next write miss invalidates only the pointers and
// leaves that copy stale. Only the home handlers set the bit, so
// clearing it as each one returns is the same as never setting it.
func NewBDroppingBroadcast(i int) coherent.Engine { return dropBroadcast{NewB(i)} }

type dropBroadcast struct{ *Engine }

func (d dropBroadcast) HomeRequest(m *coherent.Machine, msg *coherent.Msg) {
	d.Engine.HomeRequest(m, msg)
	d.clear(m, msg.Block)
}

func (d dropBroadcast) HomeMsg(m *coherent.Machine, msg *coherent.Msg) {
	d.Engine.HomeMsg(m, msg)
	d.clear(m, msg.Block)
}

func (d dropBroadcast) clear(m *coherent.Machine, b coherent.BlockID) {
	if en, _ := m.Dir(b).(*entry); en != nil {
		en.broadcast = false
	}
}
