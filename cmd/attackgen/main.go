// Command attackgen plans a synthetic measurement campaign and dumps its
// ground truth: every attack event as JSON lines, plus a summary. Use it
// to inspect what the generative model produces, or to feed external
// tooling.
//
// With -sflow-out / -pcap-out it additionally materializes the first
// -wire-days days of sampled IXP traffic as wire captures — an sFlow v5
// datagram log and/or a classic pcap file — the inputs dnsampdetect
// replays (-replay-sflow / -replay-pcap) and ixpmon tails (-sflow).
// With -scenario NAME the wire export carries a catalog scenario
// (internal/scenario) overlaid on the attack-free background instead of
// the campaign's own events; -list-scenarios enumerates the catalog.
//
// Usage:
//
//	attackgen [-scale 0.1] [-seed 1] [-out events.jsonl] [-summary]
//	          [-wire-days 3] [-traffic-seed 1] [-sflow-out FILE] [-pcap-out FILE]
//	          [-scenario pulse-wave] [-scenario-seed 42] [-list-scenarios]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"dnsamp/internal/ecosystem"
	"dnsamp/internal/scenario"
	"dnsamp/internal/simclock"
)

// eventJSON is the serialized ground-truth form.
type eventJSON struct {
	ID         int    `json:"id"`
	Attacker   string `json:"attacker"`
	Entity     bool   `json:"entity"`
	Victim     string `json:"victim"`
	VictimASN  uint32 `json:"victim_asn"`
	Start      string `json:"start"`
	DurationS  int64  `json:"duration_s"`
	QName      string `json:"qname"`
	QType      string `json:"qtype"`
	Amplifiers int    `json:"amplifiers"`
	Sensors    int    `json:"sensors"`
	ReqPerAmp  int    `json:"req_per_amp"`
	TXIDPool   int    `json:"txid_pool"`
	ViaIXP     bool   `json:"requests_via_ixp"`
	IngressAS  uint32 `json:"ingress_as"`
}

func main() {
	scale := flag.Float64("scale", 0.1, "campaign scale, in (0, 1]")
	seed := flag.Int64("seed", 1, "campaign seed")
	out := flag.String("out", "-", "output file for JSONL events (- = stdout)")
	summaryOnly := flag.Bool("summary", false, "print only the summary")
	wireDays := flag.Int("wire-days", 3, "days of sampled wire traffic to export with -sflow-out/-pcap-out")
	trafficSeed := flag.Int64("traffic-seed", 1, "traffic synthesis seed for the wire export")
	sflowOut := flag.String("sflow-out", "", "write the sampled traffic as an sFlow v5 datagram log")
	pcapOut := flag.String("pcap-out", "", "write the sampled traffic as a classic pcap file")
	scenarioName := flag.String("scenario", "", "export a catalog scenario's wire stream instead of the campaign's events")
	scenarioSeed := flag.Int64("scenario-seed", 42, "scenario seed for -scenario")
	listScenarios := flag.Bool("list-scenarios", false, "list catalog scenarios and exit")
	flag.Parse()

	if *listScenarios {
		for _, sc := range scenario.Catalog() {
			fmt.Printf("%-18s %-7s %s\n", sc.Name, sc.Kind, sc.Description)
		}
		return
	}
	if err := validateFlags(*scale, *sflowOut, *pcapOut, *wireDays, *scenarioName); err != nil {
		fmt.Fprintln(os.Stderr, "attackgen:", err)
		fmt.Fprintln(os.Stderr, "run with -h for usage")
		os.Exit(2)
	}

	wantWire := *sflowOut != "" || *pcapOut != ""

	if *scenarioName != "" {
		// Scenario export path: the campaign only supplies the benign
		// background substrate; ground-truth events JSON would describe
		// attacks the capture does not contain, so the JSONL dump is
		// skipped and the scenario's own labels are reported instead.
		sc, err := scenario.ByName(*scenarioName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "attackgen:", err)
			os.Exit(2)
		}
		p := scenario.DefaultParams()
		p.Days = *wireDays
		p.Scale = *scale
		p.CampaignSeed = *seed
		p.TrafficSeed = *trafficSeed
		env := scenario.NewEnv(p)
		bt := env.Build(sc, *scenarioSeed)
		n, err := bt.ExportWire(*sflowOut, *pcapOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "attackgen: wire export:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "scenario %s (%s): %d sampled frames over %d days, %d ground-truth victim-days\n",
			sc.Name, sc.Kind, n, p.Days, len(bt.TruthSet))
		return
	}

	cfg := ecosystem.DefaultCampaignConfig(*scale)
	cfg.Seed = *seed
	c := ecosystem.NewCampaign(cfg)

	if !*summaryOnly {
		w := bufio.NewWriter(os.Stdout)
		if *out != "-" {
			f, err := os.Create(*out)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			w = bufio.NewWriter(f)
		}
		defer w.Flush()
		enc := json.NewEncoder(w)
		for _, ev := range c.Events {
			_ = enc.Encode(eventJSON{
				ID: ev.ID, Attacker: ev.Attacker, Entity: ev.IsEntity,
				Victim: ev.Victim.String(), VictimASN: ev.VictimASN,
				Start: ev.Start.String(), DurationS: int64(ev.Duration),
				QName: ev.QName, QType: ev.QType.String(),
				Amplifiers: len(ev.Amplifiers), Sensors: len(ev.Sensors),
				ReqPerAmp: ev.ReqPerAmp, TXIDPool: len(ev.TXIDs),
				ViaIXP: ev.RequestsViaIXP, IngressAS: ev.IngressAS,
			})
		}
	}

	entity, spray, vetted, other := 0, 0, 0, 0
	for _, ev := range c.Events {
		switch {
		case ev.IsEntity:
			entity++
		case len(ev.Attacker) >= 5 && ev.Attacker[:5] == "spray":
			spray++
		case len(ev.Attacker) >= 6 && ev.Attacker[:6] == "vetted":
			vetted++
		default:
			other++
		}
	}
	fmt.Fprintf(os.Stderr, "campaign: scale %.2f seed %d\n", *scale, *seed)
	fmt.Fprintf(os.Stderr, "events: %d total (%d entity, %d spray, %d vetted, %d fixed-list)\n",
		len(c.Events), entity, spray, vetted, other)
	fmt.Fprintf(os.Stderr, "amplifier pool: %d endpoints; honeypot sensors: %d\n", c.Pool.Len(), len(c.Sensors))
	fmt.Fprintf(os.Stderr, "entity rotation:\n")
	for _, ten := range c.Entity.Tenures {
		fmt.Fprintf(os.Stderr, "  %-26s %s .. %s\n", ten.Name, ten.Start.Date(), ten.End.Date())
	}
	fmt.Fprintf(os.Stderr, "relocation 1: %s (ingress AS%d), relocation 2: %s (ingress AS%d)\n",
		c.Entity.Reloc1.Date(), c.Entity.Ingress1, c.Entity.Reloc2.Date(), c.Entity.Ingress2)

	if wantWire {
		gen := ecosystem.NewGenerator(c, *trafficSeed)
		days := ecosystem.NewWireStream(simclock.MeasurementStart, *wireDays, func(day simclock.Time) ([]ecosystem.TaggedRecord, error) {
			return gen.WireDay(day).IXP, nil
		})
		n, err := scenario.WriteWire(days, *sflowOut, *pcapOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "attackgen: wire export:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wire capture: %d sampled frames over %d days\n", n, *wireDays)
	}
}

// validateFlags rejects a -scale outside (0, 1] and flag combinations
// that would silently do nothing (or silently do less than asked):
// wire-export tuning without an output, outputs with a non-positive day
// count, scenarios without a capture to land in.
func validateFlags(scale float64, sflowOut, pcapOut string, wireDays int, scenarioName string) error {
	if err := ecosystem.CheckScale(scale); err != nil {
		return fmt.Errorf("-scale %w", err)
	}
	wantWire := sflowOut != "" || pcapOut != ""
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	if wantWire && wireDays < 1 {
		return fmt.Errorf("-sflow-out/-pcap-out need -wire-days >= 1 (got %d): nothing would be exported", wireDays)
	}
	if !wantWire {
		for _, name := range []string{"wire-days", "traffic-seed"} {
			if explicit[name] {
				return fmt.Errorf("-%s has no effect without -sflow-out or -pcap-out", name)
			}
		}
		if scenarioName != "" {
			return fmt.Errorf("-scenario needs -sflow-out and/or -pcap-out: a scenario export is a wire capture")
		}
		if explicit["scenario-seed"] {
			return fmt.Errorf("-scenario-seed has no effect without -scenario")
		}
	}
	if scenarioName == "" && explicit["scenario-seed"] {
		return fmt.Errorf("-scenario-seed has no effect without -scenario")
	}
	return nil
}
