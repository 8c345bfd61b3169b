package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"dstune"
)

// fleetSpec is the JSON layout of a -fleet file: shared scheduling
// knobs plus one entry per tuned session. All sessions run in one
// process under one Fleet scheduler; simulated sessions share one
// fabric (and so contend for the source endpoint, as in Figure 11),
// socket sessions each dial their own server.
//
// Example:
//
//	{
//	  "testbed": "uchicago",
//	  "seed": 1,
//	  "epoch": 30,
//	  "budget": 600,
//	  "sessions": [
//	    {"name": "bulk", "tuner": "nm-tuner"},
//	    {"name": "background", "tuner": "cs-tuner", "two": true}
//	  ]
//	}
type fleetSpec struct {
	// Testbed is the shared simulated testbed: uchicago or tacc
	// (ignored by socket sessions).
	Testbed string `json:"testbed"`
	// Seed drives all randomness; session i offsets it by i.
	Seed uint64 `json:"seed"`
	// Epoch is the control-epoch length in seconds (default 30).
	Epoch float64 `json:"epoch"`
	// Budget limits each session's tuning time in seconds; 0 = until
	// its transfer completes.
	Budget float64 `json:"budget"`
	// MaxTransient is the consecutive transient-failure tolerance
	// (default 3).
	MaxTransient int `json:"max_transient"`
	// Sessions are the tuned sessions.
	Sessions []fleetSessionSpec `json:"sessions"`
}

// fleetSessionSpec is one session of a fleetSpec.
type fleetSessionSpec struct {
	// Name labels the session; empty defaults to the tuner name.
	Name string `json:"name"`
	// Tuner is the strategy: default, cd-tuner, cs-tuner, nm-tuner,
	// heur1, heur2, model, two-phase, or any of them under a "warm:"
	// prefix.
	Tuner string `json:"tuner"`
	// Two tunes parallelism as well as concurrency.
	Two bool `json:"two"`
	// NP is the fixed parallelism when not tuning it (default 8).
	NP int `json:"np"`
	// MaxNC and MaxNP bound the search box (defaults 128 and 16).
	MaxNC int `json:"max_nc"`
	MaxNP int `json:"max_np"`
	// Tolerance is the significance threshold in percent (default 5).
	Tolerance float64 `json:"tolerance"`
	// Tfr and Cmp are the external load seen by this session's
	// simulated transfer source (shared fabric: the last session's
	// values win).
	Tfr int `json:"tfr"`
	Cmp int `json:"cmp"`
	// Addr, when set, makes this a real-socket session against a
	// gridftpd server; Bytes bounds it (0 = unbounded).
	Addr  string  `json:"addr"`
	Bytes float64 `json:"bytes"`
	// Weight scales the session's transfer in its aggregate objective
	// (single-transfer sessions: cosmetic).
	Weight float64 `json:"weight"`
}

// runFleet loads a fleet spec and drives all its sessions from one
// scheduler, printing each session's trace and summary. A non-nil
// observer watches every session (metrics labeled by session ID, live
// /status); a non-empty checkpointPath makes each session write its
// durable state to a per-session file derived from it (see
// sessionCheckpointPath); a non-nil history store warm-starts every
// session and records each session's best epoch under a per-session
// key on a clean end.
func runFleet(path string, observer *dstune.Observer, checkpointPath string, histStore *dstune.HistoryStore) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var spec fleetSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("fleet spec %s: %w", path, err)
	}
	if len(spec.Sessions) == 0 {
		return fmt.Errorf("fleet spec %s has no sessions", path)
	}
	socket := 0
	for _, s := range spec.Sessions {
		if s.Addr != "" {
			socket++
		}
	}
	if socket != 0 && socket != len(spec.Sessions) {
		return fmt.Errorf("fleet spec %s mixes simulated and socket sessions: the scheduler paces all sessions on one clock", path)
	}

	// Simulated sessions share one fabric, so they contend for the
	// source endpoint like Figure 11's simultaneous transfers.
	var fabric *dstune.Fabric
	if socket == 0 {
		var tb dstune.Testbed
		switch spec.Testbed {
		case "uchicago", "":
			tb = dstune.ANLtoUChicago()
		case "tacc":
			tb = dstune.ANLtoTACC()
		default:
			return fmt.Errorf("unknown testbed %q (want uchicago or tacc)", spec.Testbed)
		}
		var err error
		fabric, _, err = tb.NewFabric(spec.Seed)
		if err != nil {
			return err
		}
	}

	sessions := make([]dstune.FleetSession, 0, len(spec.Sessions))
	usedIDs := make(map[string]bool, len(spec.Sessions))
	for i, ss := range spec.Sessions {
		if ss.Name == "" {
			ss.Name = ss.Tuner
		}
		// Resolve the stable session ID here (the same defaulting and
		// deduplication the Fleet applies) so checkpoint filenames can
		// carry it.
		id := ss.Name
		for n := 2; usedIDs[id]; n++ {
			id = fmt.Sprintf("%s-%d", ss.Name, n)
		}
		usedIDs[id] = true
		if ss.NP == 0 {
			ss.NP = 8
		}
		if ss.MaxNC == 0 {
			ss.MaxNC = 128
		}
		if ss.MaxNP == 0 {
			ss.MaxNP = 16
		}
		cfg := dstune.SearchSpace{Two: ss.Two, NP: ss.NP, MaxNC: ss.MaxNC, MaxNP: ss.MaxNP}.Apply(dstune.TunerConfig{
			Epoch:     spec.Epoch,
			Tolerance: ss.Tolerance,
			Budget:    spec.Budget,
			Seed:      spec.Seed + uint64(i),
			Obs:       observer.Session(id),
		})
		// The session's history key embeds the deduplicated session ID:
		// "bulk" and "bulk-2" record under different keys, and the key
		// survives spec renames of other sessions.
		testbed := spec.Testbed
		if testbed == "" {
			testbed = "uchicago"
		}
		key := dstune.SessionHistoryKey(id, testbed, ss.Addr, ss.Bytes, ss.Tfr, ss.Cmp)
		strat, err := dstune.ResolveStrategy(ss.Tuner, cfg, histStore, key)
		if err != nil {
			return err
		}

		var transfer dstune.Transferer
		if ss.Addr != "" {
			size := ss.Bytes
			if size <= 0 {
				size = dstune.Unbounded
			}
			transfer, err = dstune.NewTransferClient(dstune.TransferClientConfig{
				Addr: ss.Addr, Bytes: size, Seed: spec.Seed + uint64(i),
			})
		} else {
			if ss.Tfr != 0 || ss.Cmp != 0 {
				fabric.SetLoad(dstune.ConstantLoad(dstune.Load{Tfr: ss.Tfr, Cmp: ss.Cmp}), nil)
			}
			transfer, err = fabric.NewTransfer(dstune.TransferConfig{
				Name: ss.Name, Bytes: dstune.Unbounded,
			})
		}
		if err != nil {
			return err
		}

		session := dstune.FleetSession{
			ID:        id,
			Name:      ss.Name,
			Strategy:  strat,
			Transfers: []dstune.Transferer{transfer},
			Maps:      []dstune.ParamMap{cfg.Map},
			Seed:      cfg.Seed,
		}
		if ss.Weight != 0 {
			session.Weights = []float64{ss.Weight}
		}
		if checkpointPath != "" {
			session.Checkpoint = dstune.NewFileCheckpoint(sessionCheckpointPath(checkpointPath, id))
		}
		if histStore != nil {
			session.HistoryKey = key
		}
		sessions = append(sessions, session)
	}

	fleet := dstune.NewFleet(dstune.FleetConfig{
		Epoch:                spec.Epoch,
		Budget:               spec.Budget,
		MaxTransientFailures: spec.MaxTransient,
		Obs:                  observer,
		History:              histStore,
	}, sessions...)
	results, err := fleet.Run(context.Background())
	if err != nil {
		return err
	}
	failed := false
	for _, r := range results {
		fmt.Printf("=== session %s ===\n", r.ID)
		printTrace(r.Traces[0])
		fmt.Printf("bytes moved: %.0f\n\n", r.Bytes)
		if r.Err != nil {
			failed = true
			log.Printf("session %s failed: %v", r.ID, r.Err)
		}
	}
	if failed {
		return fmt.Errorf("one or more fleet sessions failed")
	}
	return nil
}

// sessionCheckpointPath derives a per-session checkpoint filename from
// the shared -checkpoint path by splicing the session ID in before the
// extension: run.ck + "bulk" -> run-bulk.ck (and, beside it, the epoch
// log run-bulk.ck.log). Extensionless paths get a plain suffix: run +
// "bulk" -> run-bulk.
func sessionCheckpointPath(path, id string) string {
	ext := filepath.Ext(path)
	return path[:len(path)-len(ext)] + "-" + id + ext
}
