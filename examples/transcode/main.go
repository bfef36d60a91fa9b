// Transcode: enable the elastic transcoding farm and watch delivery plans
// offload their transcode stage onto a heterogeneous worker fleet that
// converts GOPs just-in-time ahead of each stream's play point.
package main

import (
	"fmt"
	"log"
	"time"

	"quasaq"
)

func main() {
	// Single-copy storage: only the original quality of each video exists,
	// so delivering any lower tier forces an online transcode — exactly
	// the work the farm exists to absorb.
	db, err := quasaq.Open(quasaq.Options{SingleCopyReplication: true})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := db.AddVideos(quasaq.StandardCorpus(42)); err != nil {
		log.Fatal(err)
	}

	// A mixed fleet: a fast, expensive class for deadline pressure and a
	// slow, cheap one for background capacity, scaled by the autoscaler
	// every 2 s of virtual time.
	err = db.EnableTranscodeFarm(quasaq.FarmConfig{
		Classes: []quasaq.WorkerClass{
			{Name: "fast", Speed: 4, Startup: quasaq.Time(250 * time.Millisecond),
				DollarsPerHour: 2.4, MaxWorkers: 4},
			{Name: "econ", Speed: 0.5, Startup: quasaq.Time(3 * time.Second),
				DollarsPerHour: 0.3, MinWorkers: 1, MaxWorkers: 6},
		},
		Autoscale: quasaq.AutoscaleConfig{Interval: quasaq.Time(2 * time.Second)},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Ask for a quality below the stored original from every site: each
	// admitted plan carries a transcode stage the planner may offload.
	req := quasaq.Requirement{
		MinResolution: quasaq.ResVCD,
		MaxResolution: quasaq.ResCIF,
		MinFrameRate:  10,
	}
	admitted := 0
	offloaded := 0
	for i, v := range db.Videos() {
		site := db.Sites()[i%len(db.Sites())]
		d, err := db.Deliver(site, v.ID, req)
		if err != nil {
			continue
		}
		admitted++
		if d.Plan.FarmOffloaded() {
			offloaded++
		}
		if i < 3 {
			fmt.Printf("plan %d: %s\n", i, d.Plan)
			for j, st := range d.Plan.Stages {
				fmt.Printf("  stage %d: %-10s site=%-6s work=%.3f cpu-s/s\n",
					j, st.Kind, st.Site, st.Work)
			}
		}
		db.Advance(2 * time.Second)
	}
	db.RunUntilIdle()

	fs := db.TranscodeStats()
	fmt.Printf("\nadmitted %d deliveries, %d offloaded to the farm\n", admitted, offloaded)
	fmt.Printf("farm: %d GOP jobs, %d deadline misses (%.1f%%), max queue %d\n",
		fs.Jobs, fs.DeadlineMiss, 100*fs.MissRate(), fs.MaxQueueDepth)
	fmt.Printf("autoscaler: %d scale-ups, %d scale-downs, $%.4f billed\n",
		fs.ScaleUps, fs.ScaleDowns, fs.Dollars)
	for _, c := range fs.PerClass {
		fmt.Printf("  class %-5s: %d workers, %.1f busy seconds\n",
			c.Name, c.Workers, c.BusySeconds)
	}
}
