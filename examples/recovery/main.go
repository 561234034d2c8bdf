// Failure recovery (paper §III.G): a region checkpoints its workspace
// subtree on the DFS; when a client node dies with uncommitted
// operations, the application rolls the subtree back to the checkpoint
// and rebuilds the distributed cache.
package main

import (
	"errors"
	"fmt"
	"log"

	"pacon"
)

func main() {
	sim := pacon.NewSimulation(pacon.SimulationConfig{ClientNodes: 4})
	sim.MustMkdirAll("/proj/sim", 0o777)

	region, err := sim.NewRegion(pacon.RegionConfig{
		Name:      "sim",
		Workspace: "/proj/sim",
		Nodes:     sim.Nodes(),
		Cred:      pacon.Cred{UID: 1000, GID: 1000},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer region.Close()

	c0, err := region.NewClient(sim.Nodes()[0])
	if err != nil {
		log.Fatal(err)
	}

	// Epoch 1 of the application: results worth keeping.
	now, err := c0.Mkdir(0, "/proj/sim/epoch1", 0o755)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		p := fmt.Sprintf("/proj/sim/epoch1/state%d", i)
		if now, err = c0.Create(now, p, 0o644); err != nil {
			log.Fatal(err)
		}
		if now, err = c0.WriteAt(now, p, 0, []byte(fmt.Sprintf("converged-%d", i))); err != nil {
			log.Fatal(err)
		}
	}

	// The application checkpoints its workspace — a subtree copy on the
	// DFS, not a whole-namespace snapshot.
	seq, now, err := region.Checkpoint(c0, now)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint %d taken at %v\n", seq, now)

	// Epoch 2 begins: more writes, some still uncommitted...
	if now, err = c0.Mkdir(now, "/proj/sim/epoch2", 0o755); err != nil {
		log.Fatal(err)
	}
	if now, err = c0.Create(now, "/proj/sim/epoch2/partial", 0o644); err != nil {
		log.Fatal(err)
	}

	// ...when node0 crashes. Its queued operations are lost; its cache
	// contents vanish.
	lost := region.SimulateNodeFailure(sim.Nodes()[0])
	fmt.Printf("node %s failed: %d uncommitted operations lost\n", sim.Nodes()[0], lost)

	// A surviving node rolls the workspace back to the checkpoint.
	c1, err := region.NewClient(sim.Nodes()[1])
	if err != nil {
		log.Fatal(err)
	}
	if now, err = region.Restore(c1, now, seq); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restored to checkpoint %d at %v\n", seq, now)

	// Checkpointed state is intact — including small-file data, which
	// the checkpoint copied and the restore copied back.
	data, now, err := c1.ReadAt(now, "/proj/sim/epoch1/state7", 0, 64)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("epoch1/state7: %q\n", data)

	// Post-checkpoint state is gone, as requested.
	if _, _, err := c1.Stat(now, "/proj/sim/epoch2"); errors.Is(err, pacon.ErrNotExist) {
		fmt.Println("epoch2 rolled back")
	} else {
		log.Fatalf("epoch2 still present: %v", err)
	}

	// Note §III.G: checkpoints are optional. Without one, the DFS still
	// holds every committed operation; only uncommitted tail work needs
	// application-level replay.
}
