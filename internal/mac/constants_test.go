package mac

import (
	"testing"

	"repro/internal/core"
	"repro/internal/neighbor"
	"repro/internal/phy"
)

// TestConstantsHoldTheirFacts checks the facts the code relies on about
// the fixed timing of Table 1, the HELLO protocol and the analytical
// model, which no scenario can change.
func TestConstantsHoldTheirFacts(t *testing.T) {
	// The countdown envelope (DESIGN.md §12.3): DIFS > Slot roots each
	// countdown's tick chain at its DIFS/EIFS expiry, as the exact
	// ordering assumes, and PropDelay < Slot <= SyncTime is the range
	// the equivalence tests cover.
	if !(phy.PropDelay < Slot && Slot <= phy.SyncTime) {
		t.Errorf("need PropDelay < Slot <= SyncTime, got %v, %v, %v", phy.PropDelay, Slot, phy.SyncTime)
	}
	if !(DIFS > Slot) {
		t.Errorf("need DIFS > Slot, got %v, %v", DIFS, Slot)
	}
	if ctsAir != phy.Airtime(CTSBytes) || ackAir != phy.Airtime(ACKBytes) {
		t.Errorf("CTS/ACK airtimes %v/%v, phy.Airtime says %v/%v", ctsAir, ackAir, phy.Airtime(CTSBytes), phy.Airtime(ACKBytes))
	}
	// Bootstrap draws each beacon's offset from what a round leaves after
	// the beacon's airtime and propagation.
	if head := neighbor.HelloRoundLen - phy.Airtime(neighbor.HelloBytes) - phy.PropDelay; head < 1 {
		t.Errorf("a %v HELLO round leaves no room for a %d-byte beacon", neighbor.HelloRoundLen, neighbor.HelloBytes)
	}
	// Bianchi's fixed point models this MAC's window: W = CWMin+1 (32)
	// slots, doubling M times up to CWMax+1.
	if bp := core.DefaultBianchiParams(2); bp.W != CWMin+1 || bp.W<<bp.M != CWMax+1 {
		t.Errorf("Bianchi window W=%d M=%d, MAC window %d–%d", bp.W, bp.M, CWMin, CWMax)
	}
}
