package server

import (
	"io"
	"net"
	"net/http"
	"testing"

	"dnsamp/internal/faults"
	"dnsamp/internal/simclock"
)

// faultyListen wraps the service's ingest socket in a fault injector —
// the Config.ListenPacket seam.
func faultyListen(inj *faults.Injector) func(addr string) (net.PacketConn, error) {
	return func(addr string) (net.PacketConn, error) {
		c, err := net.ListenPacket("udp", addr)
		if err != nil {
			return nil, err
		}
		if uc, ok := c.(*net.UDPConn); ok {
			_ = uc.SetReadBuffer(1 << 20) // best-effort, as the UDP runner asks of an unwrapped socket
		}
		return inj.PacketConn(c), nil
	}
}

func healthzGet(t *testing.T, svc *Service) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + svc.HTTPAddr().String() + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// assertConservation checks that every received datagram has met
// exactly one fate: nothing is in flight (Accounting). Call only when
// the queue is drained.
func assertConservation(t *testing.T, svc *Service) {
	t.Helper()
	if a := svc.Accounting(); a.InFlight != 0 {
		t.Fatalf("accounting leak: %+v", a)
	}
}

// TestServiceChaosGolden: a replay run through lossless faults —
// transient read errors on the service's own socket — must retry its
// way to detections identical to a clean run, ending healthy.
func TestServiceChaosGolden(t *testing.T) {
	const days, listN = 3, 29
	dgs := logDatagrams(t, wireLog(t, days).Bytes())
	wcfg := WindowConfig{Days: 2, ListSize: listN, Refresh: simclock.Hour}

	ref := startService(t, Config{Inputs: udpInput(t), TimeFromUptime: true, Window: wcfg})
	sendPaced(t, ref, dialService(t, ref), dgs)
	shutdownSvc(t, ref)
	wantDets, wantSamples := finalState(ref)
	if len(wantDets) == 0 {
		t.Fatal("clean run found no detections; the chaos comparison would be vacuous")
	}

	inj := faults.New(faults.Plan{Seed: 42, ReadErr: 0.02})
	svc := startService(t, Config{
		Inputs:         udpInput(t),
		TimeFromUptime: true, Window: wcfg,
		ListenPacket: faultyListen(inj),
	})
	sendPaced(t, svc, dialService(t, svc), dgs)
	in := svc.InputsSnapshot()[0]
	if in.ReadRetries == 0 || inj.Stats().ReadErrs == 0 {
		t.Fatalf("no read faults fired (retries %d, injected %d); the chaos run was a clean run",
			in.ReadRetries, inj.Stats().ReadErrs)
	}
	if in.Restarts != 0 {
		t.Errorf("transient read errors restarted the input %d times; they are retried on the open socket", in.Restarts)
	}
	if status, body := healthzGet(t, svc); status != http.StatusOK || body != "ok\n" {
		t.Errorf("/healthz after lossless faults = %d %q, want 200 ok", status, body)
	}
	shutdownSvc(t, svc)

	gotDets, gotSamples := finalState(svc)
	if gotSamples != wantSamples {
		t.Errorf("samples under lossless faults: %d, clean %d", gotSamples, wantSamples)
	}
	if len(gotDets) != len(wantDets) {
		t.Fatalf("detections: faulted %d, clean %d", len(gotDets), len(wantDets))
	}
	for i := range gotDets {
		if *gotDets[i] != *wantDets[i] {
			t.Errorf("detection %d: faulted %+v, clean %+v", i, *gotDets[i], *wantDets[i])
		}
	}
	assertConservation(t, svc)
}

// TestServiceChaosSoak: a lossy fault storm — drops, duplicates,
// reordering, corruption on the sender; transient read errors on the
// receiver — against a stalled consumer. Every datagram that reaches
// the service must be accounted for exactly once through the overload
// tiers, and once the storm passes the state machine must walk back
// to ok.
func TestServiceChaosSoak(t *testing.T) {
	const burst = 2000
	recvInj := faults.New(faults.Plan{Seed: 7, ReadErr: 0.01})
	svc := NewService(Config{
		Inputs:   udpInput(t),
		Window:   WindowConfig{Days: 2},
		QueueLen: 64, PerSourceQueue: 64,
		ListenPacket: faultyListen(recvInj),
	})
	openGate := startGated(t, svc)

	sender, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sendInj := faults.New(faults.Plan{Seed: 11, Drop: 0.05, Dup: 0.05, Reorder: 0.05, Corrupt: 0.05})
	fconn := sendInj.PacketConn(sender)
	addr := udpAddr(t, svc)

	// The storm: a flat-out burst into a stalled consumer. Pacing bounds
	// in-flight datagrams so the kernel socket buffer never drops — the
	// conservation check needs every delivered datagram to be received.
	for i := 1; i <= burst; i++ {
		if _, err := fconn.WriteTo(miniDatagram(uint32(i)), addr); err != nil {
			t.Fatalf("sending datagram %d: %v", i, err)
		}
		if i%64 == 0 {
			st := sendInj.Stats()
			floor := uint64(i) - st.Drops + st.Dups
			if floor > 65 { // one held reorder datagram + the pacing window
				floor -= 65
			} else {
				floor = 0
			}
			waitUntil(t, "receiver to keep up", func() bool { return svc.Received() >= floor })
		}
	}
	if err := fconn.Close(); err != nil { // releases a held reorder datagram
		t.Fatal(err)
	}
	st := sendInj.Stats()
	delivered := uint64(burst) - st.Drops + st.Dups
	if st.Drops == 0 || st.Dups == 0 || st.Reorders == 0 || st.Corruptions == 0 {
		t.Fatalf("fault storm too quiet: %+v", st)
	}
	waitUntil(t, "every delivered datagram received", func() bool { return svc.Received() == delivered })

	// The stalled queue crossed the shedding tiers: degraded, 503.
	if got := svc.Health(); got != HealthDegraded {
		t.Fatalf("health after the storm = %v, want degraded", got)
	}
	if status, body := healthzGet(t, svc); status != http.StatusServiceUnavailable || body != "degraded\n" {
		t.Errorf("/healthz while degraded = %d %q, want 503 degraded", status, body)
	}
	if svc.ShedAll() == 0 || svc.SampledOut() == 0 {
		t.Errorf("overload tiers never engaged: sampledOut %d, shedAll %d", svc.SampledOut(), svc.ShedAll())
	}

	// The storm passes: drain the backlog, then feed clean traffic until
	// the hold elapses and the state machine returns to ok.
	openGate()
	waitDrained(t, svc)

	clean := dialService(t, svc)
	seq := uint32(burst)
	waitUntil(t, "service to recover", func() bool {
		if svc.Health() == HealthOK {
			return true
		}
		seq++
		clean.Write(miniDatagram(seq)) //nolint:errcheck // retried by the poll
		return false
	})
	waitDrained(t, svc)
	if status, body := healthzGet(t, svc); status != http.StatusOK || body != "ok\n" {
		t.Errorf("/healthz after recovery = %d %q, want 200 ok", status, body)
	}
}
