package fednet

import (
	"io"
	"time"

	"fedmigr/internal/telemetry"
)

// netMetrics instruments the wire protocol of one node: bytes in/out,
// per-message-type counters, and write/read latency histograms. A nil
// *netMetrics (telemetry disabled) delegates straight to the raw frame
// functions at zero cost.
type netMetrics struct {
	txBytes, rxBytes    *telemetry.Counter
	txMsg, rxMsg        [msgTypeMax + 1]*telemetry.Counter
	writeSecs, readSecs *telemetry.Histogram

	// Fault-tolerance counters: dial retries, deadline expiries, clients
	// declared dead, migrations rerouted back to their sender, models lost
	// in transit, and rounds aggregated with degraded membership.
	retries       *telemetry.Counter
	timeouts      *telemetry.Counter
	deadClients   *telemetry.Counter
	reroutes      *telemetry.Counter
	lostModels    *telemetry.Counter
	partialRounds *telemetry.Counter
	jobMismatches *telemetry.Counter

	// Churn counters: mid-session registrations, graceful departures, and
	// in-flight TrainStates rerouted to an adopter.
	joins           *telemetry.Counter
	leaves          *telemetry.Counter
	stateMigrations *telemetry.Counter
}

// rpcBuckets spans 0.1 ms to ~6.5 s of blocking network time.
func rpcBuckets() []float64 { return telemetry.ExpBuckets(1e-4, 2, 16) }

// newNetMetrics builds the node's handles under the given role label
// ("server" or "client"); nil tel yields a nil (no-op) *netMetrics.
func newNetMetrics(tel *telemetry.Telemetry, role string) *netMetrics {
	if tel == nil {
		return nil
	}
	nm := &netMetrics{
		txBytes:   tel.Counter("fednet_bytes_total", "role", role, "dir", "tx"),
		rxBytes:   tel.Counter("fednet_bytes_total", "role", role, "dir", "rx"),
		writeSecs: tel.Histogram("fednet_rpc_seconds", rpcBuckets(), "role", role, "op", "write"),
		readSecs:  tel.Histogram("fednet_rpc_seconds", rpcBuckets(), "role", role, "op", "read"),
	}
	for t := MsgHello; t <= msgTypeMax; t++ {
		nm.txMsg[t] = tel.Counter("fednet_msgs_total", "role", role, "dir", "tx", "type", t.String())
		nm.rxMsg[t] = tel.Counter("fednet_msgs_total", "role", role, "dir", "rx", "type", t.String())
	}
	nm.retries = tel.Counter("fednet_retries_total", "role", role)
	nm.timeouts = tel.Counter("fednet_timeouts_total", "role", role)
	nm.deadClients = tel.Counter("fednet_dead_clients_total", "role", role)
	nm.reroutes = tel.Counter("fednet_reroutes_total", "role", role)
	nm.lostModels = tel.Counter("fednet_lost_models_total", "role", role)
	nm.partialRounds = tel.Counter("fednet_partial_rounds_total", "role", role)
	nm.jobMismatches = tel.Counter("fednet_job_mismatches_total", "role", role)
	nm.joins = tel.Counter("fednet_joins_total", "role", role)
	nm.leaves = tel.Counter("fednet_leaves_total", "role", role)
	nm.stateMigrations = tel.Counter("fednet_state_migrations_total", "role", role)
	return nm
}

// incRetry .. incPartialRound record fault-handling actions; all are
// no-ops on a nil *netMetrics.
func (nm *netMetrics) incRetry() {
	if nm != nil {
		nm.retries.Inc()
	}
}

func (nm *netMetrics) incTimeout() {
	if nm != nil {
		nm.timeouts.Inc()
	}
}

func (nm *netMetrics) incDeadClient() {
	if nm != nil {
		nm.deadClients.Inc()
	}
}

func (nm *netMetrics) incJobMismatch() {
	if nm != nil {
		nm.jobMismatches.Inc()
	}
}

func (nm *netMetrics) incReroute() {
	if nm != nil {
		nm.reroutes.Inc()
	}
}

func (nm *netMetrics) incLostModel() {
	if nm != nil {
		nm.lostModels.Inc()
	}
}

func (nm *netMetrics) incPartialRound() {
	if nm != nil {
		nm.partialRounds.Inc()
	}
}

func (nm *netMetrics) incJoin() {
	if nm != nil {
		nm.joins.Inc()
	}
}

func (nm *netMetrics) incLeave() {
	if nm != nil {
		nm.leaves.Inc()
	}
}

func (nm *netMetrics) incStateMigration() {
	if nm != nil {
		nm.stateMigrations.Inc()
	}
}

// write sends one frame, recording bytes, message type and latency.
func (nm *netMetrics) write(w io.Writer, m *Message) error {
	if nm == nil {
		return WriteMessage(w, m)
	}
	start := time.Now()
	n, err := WriteMessageCount(w, m)
	nm.writeSecs.Observe(time.Since(start).Seconds())
	nm.txBytes.Add(int64(n))
	if m.Type <= msgTypeMax {
		nm.txMsg[m.Type].Inc()
	}
	return err
}

// read receives one frame through fr (whose buffer the frame's Params
// aliases until fr's next read), recording bytes, message type and the
// blocking time spent waiting for it.
func (nm *netMetrics) read(fr *frameReader, r io.Reader) (*Message, error) {
	if nm == nil {
		m, _, err := fr.read(r)
		return m, err
	}
	start := time.Now()
	m, n, err := fr.read(r)
	nm.readSecs.Observe(time.Since(start).Seconds())
	nm.rxBytes.Add(int64(n))
	if m != nil && m.Type <= msgTypeMax {
		nm.rxMsg[m.Type].Inc()
	}
	return m, err
}

// expect reads one frame and verifies its type.
func (nm *netMetrics) expect(fr *frameReader, r io.Reader, want MsgType) (*Message, error) {
	m, err := nm.read(fr, r)
	if err != nil {
		return nil, err
	}
	if m.Type != want {
		return nil, typeMismatch(m.Type, want)
	}
	return m, nil
}
