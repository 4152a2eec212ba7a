// Command fuzzctl manages campaigns on a fleet coordinator over its
// /v1/campaigns control surface.
//
// Usage:
//
//	fuzzctl -addr host:7070 create -name nightly -bench scmi_mailbox -workers 4
//	fuzzctl -addr host:7070 list
//	fuzzctl -addr host:7070 status nightly
//	fuzzctl -addr host:7070 report nightly -out report.json
//	fuzzctl -addr host:7070 cancel nightly
//	fuzzctl -addr host:7070 fleet -out fleet.json
//
// create mirrors symbfuzz's campaign flags (-bench, -vectors,
// -interval, -threshold, -seed, -workers, -fixed). report prints (or
// writes with -out) the merged campaign report once every rank is
// done; fleet dumps the whole-fleet rollup JSON that fuzzreport
// -fleet renders.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/fleet"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "fleet coordinator address")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	base := "http://" + strings.TrimPrefix(strings.TrimRight(*addr, "/"), "http://")

	var err error
	switch args[0] {
	case "create":
		err = cmdCreate(base, args[1:])
	case "list":
		err = cmdList(base)
	case "status":
		err = cmdStatus(base, args[1:])
	case "report":
		err = cmdReport(base, args[1:])
	case "cancel":
		err = cmdCancel(base, args[1:])
	case "fleet":
		err = cmdFleet(base, args[1:])
	default:
		fmt.Fprintf(os.Stderr, "fuzzctl: unknown command %q\n", args[0])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fuzzctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: fuzzctl -addr host:port {create|list|status|report|cancel|fleet} [args]")
	flag.PrintDefaults()
}

// apiErr decodes a control-surface error body into a readable error.
func apiErr(resp *http.Response) error {
	body, _ := io.ReadAll(resp.Body)
	var er dist.ErrorResponse
	if json.Unmarshal(body, &er) == nil && er.Error != "" {
		return fmt.Errorf("%s (%d)", er.Error, resp.StatusCode)
	}
	return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
}

func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiErr(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func cmdCreate(base string, args []string) error {
	fs := flag.NewFlagSet("create", flag.ExitOnError)
	name := fs.String("name", "", "campaign name (required)")
	bench := fs.String("bench", "", "built-in benchmark name (required)")
	vectors := fs.Uint64("vectors", 20000, "input vector budget per rank")
	interval := fs.Int("interval", 300, "Algorithm 1 interval I (cycles)")
	threshold := fs.Int("threshold", 3, "Algorithm 1 stagnation threshold Th")
	seed := fs.Int64("seed", 1, "random seed")
	workers := fs.Int("workers", 1, "shard ranks")
	fixed := fs.Bool("fixed", false, "use the bug-free design variant")
	replay := fs.Bool("replay", false, "use reset+replay instead of snapshots")
	keepGoing := fs.Bool("keep-going", true, "continue after full CFG coverage")
	noSlice := fs.Bool("no-slice", false, "disable cone-of-influence slicing")
	simBack := fs.String("sim", "compiled", "simulation backend: compiled or interp")
	profile := fs.Bool("prof", false, "profile each rank's simulator: per-process eval counts in the campaign trace (fuzzprof renders its cost ledger)")
	stopAt := fs.Int("stop-at-points", 0, "stop once the merged frontier reaches this many points")
	fs.Parse(args)
	if *name == "" || *bench == "" {
		return fmt.Errorf("create requires -name and -bench")
	}
	req := fleet.CreateRequest{
		Name: *name,
		Spec: dist.CampaignSpec{
			Bench:                 *bench,
			Fixed:                 *fixed,
			Interval:              *interval,
			Threshold:             *threshold,
			MaxVectors:            *vectors,
			Seed:                  *seed,
			Workers:               *workers,
			UseSnapshots:          !*replay,
			ContinueAfterCoverage: *keepGoing,
			DisableSlicing:        *noSlice,
			SimBackend:            *simBack,
			Profile:               *profile,
		},
		StopAtPoints: *stopAt,
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := http.Post(base+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return apiErr(resp)
	}
	var st fleet.CampaignStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return err
	}
	fmt.Printf("created campaign %s (%s): %d ranks\n", st.Campaign, st.CampaignID, st.Workers)
	return nil
}

func cmdList(base string) error {
	var list fleet.ListResponse
	if err := getJSON(base+"/v1/campaigns", &list); err != nil {
		return err
	}
	printStatusTable(list.Campaigns)
	return nil
}

func printStatusTable(camps []fleet.CampaignStatus) {
	fmt.Printf("%-20s %-8s %6s %8s %10s %8s %8s %6s\n",
		"campaign", "state", "ranks", "done", "vectors", "points", "batches", "429s")
	for _, c := range camps {
		state := "running"
		switch {
		case c.Cancelled:
			state = "cancel"
		case c.BudgetStop:
			state = "budget"
		case c.Done:
			state = "done"
		}
		fmt.Printf("%-20s %-8s %6d %8d %10d %8d %8d %6d\n",
			c.Campaign, state, c.Workers, c.RanksDone, c.Vectors, c.Points, c.Batches, c.Rejected429)
	}
}

func oneName(cmd string, args []string) (string, error) {
	if len(args) < 1 || strings.HasPrefix(args[0], "-") {
		return "", fmt.Errorf("%s requires a campaign name", cmd)
	}
	return args[0], nil
}

func cmdStatus(base string, args []string) error {
	name, err := oneName("status", args)
	if err != nil {
		return err
	}
	var st fleet.CampaignStatus
	if err := getJSON(base+"/v1/campaigns/"+name, &st); err != nil {
		return err
	}
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

func cmdReport(base string, args []string) error {
	name, err := oneName("report", args)
	if err != nil {
		return err
	}
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	out := fs.String("out", "", "write the merged report JSON to this file (default stdout)")
	wait := fs.Duration("wait", 0, "poll until the campaign is done, up to this long (0 = no wait)")
	fs.Parse(args[1:])

	deadline := time.Now().Add(*wait)
	var raw json.RawMessage
	for {
		resp, err := http.Get(base + "/v1/campaigns/" + name + "/report")
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusOK {
			raw, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return err
			}
			break
		}
		ferr := apiErr(resp)
		resp.Body.Close()
		if *wait == 0 || time.Now().After(deadline) {
			return ferr
		}
		time.Sleep(time.Second)
	}
	if *out != "" {
		return os.WriteFile(*out, append(bytes.TrimRight(raw, "\n"), '\n'), 0o644)
	}
	fmt.Println(string(bytes.TrimRight(raw, "\n")))
	return nil
}

func cmdCancel(base string, args []string) error {
	name, err := oneName("cancel", args)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/campaigns/"+name, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiErr(resp)
	}
	var st fleet.CampaignStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return err
	}
	fmt.Printf("cancelled campaign %s (%d/%d ranks had reported)\n", st.Campaign, st.RanksDone, st.Workers)
	return nil
}

func cmdFleet(base string, args []string) error {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	out := fs.String("out", "", "write the fleet rollup JSON to this file (default: print a table)")
	fs.Parse(args)
	var st fleet.FleetStatus
	if err := getJSON(base+"/v1/fleet", &st); err != nil {
		return err
	}
	if *out != "" {
		data, err := json.MarshalIndent(st, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(*out, append(data, '\n'), 0o644)
	}
	fmt.Printf("fleet up %s, %d campaign(s)\n", time.Duration(st.UptimeNS).Round(time.Second), len(st.Campaigns))
	printStatusTable(st.Campaigns)
	return nil
}
