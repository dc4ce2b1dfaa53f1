package ecosystem

import (
	"net/netip"

	"dnsamp/internal/dnswire"
	"dnsamp/internal/simclock"
)

// AttackEvent is one reflection/amplification attack against a victim —
// ground truth the vantage points observe only partially.
type AttackEvent struct {
	ID int
	// Attacker labels the originating entity ("entity", "vetted-3",
	// "spray-17", "alpha", "beta", "cluster-2", ...).
	Attacker string
	// IsEntity marks the major attack entity's events.
	IsEntity bool

	Victim    netip.Addr
	VictimASN uint32

	Start    simclock.Time
	Duration simclock.Duration

	QName string
	QType dnswire.Type

	// Amplifiers are pool ids abused in this event.
	Amplifiers []int
	// Sensors are honeypot sensor indices the attacker's list included
	// (it believed them to be amplifiers).
	Sensors []int

	// ReqPerAmp is the number of spoofed requests sent to each
	// amplifier over the event.
	ReqPerAmp int
	// ReqPerSensor is the number of spoofed requests per included
	// honeypot sensor.
	ReqPerSensor int

	// TXIDs is the attack tool's transaction-ID pool for this event —
	// pre-built queries reuse a small set (Fig. 10). Empty means fully
	// random IDs.
	TXIDs []uint16
	// TXIDs2 is the second-phase pool for events straddling the
	// entity's 48-hour parity shift (~9% of entity events).
	TXIDs2 []uint16

	// RequestsViaIXP marks events whose spoofed queries traverse the
	// IXP (the entity after relocation 1).
	RequestsViaIXP bool
	// IngressAS is the IXP member port the requests enter through.
	IngressAS uint32
	// ReqIPTTL is the IP TTL of requests as seen at the IXP (the
	// entity's constant 250).
	ReqIPTTL uint8
	// SrcPort is the spoofed source port used for this victim.
	SrcPort uint16
}

// End returns the exclusive end time.
func (e *AttackEvent) End() simclock.Time { return e.Start.Add(e.Duration) }

// Day returns the start-of-day of the event's begin.
func (e *AttackEvent) Day() simclock.Time { return e.Start.StartOfDay() }

// VictimKey returns the victim address as a map key.
func (e *AttackEvent) VictimKey() [4]byte { return e.Victim.As4() }

// HoneypotRequest is one spoofed query arriving at a honeypot sensor.
type HoneypotRequest struct {
	Time   simclock.Time
	Sensor int
	Victim netip.Addr
	QName  string
	QType  dnswire.Type
	TXID   uint16
	// EventID links back to ground truth (not available to the
	// honeypot inference, which works from the wire signal only).
	EventID int
}
