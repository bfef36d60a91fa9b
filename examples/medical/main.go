// Medical: the paper's motivating scenario (§1). A physician diagnosing a
// patient needs jitter-free, full-quality playback of test footage; a nurse
// organizing the same records does not. Both express themselves in
// qualitative QoP; their user profiles translate to very different QoS
// requirements, and QuaSAQ serves each with a different plan.
package main

import (
	"fmt"
	"log"

	"quasaq"
)

func main() {
	db, err := quasaq.Open(quasaq.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := db.AddVideos(quasaq.StandardCorpus(42)); err != nil {
		log.Fatal(err)
	}

	// Content phase: both users find the patient's footage by content.
	matches, err := db.Search("SELECT * FROM videos WHERE tags CONTAINS 'cardiac' SIMILAR TO 'cardiac-mri-patient-007' LIMIT 1")
	if err != nil {
		log.Fatal(err)
	}
	video := matches[0].Video
	fmt.Printf("patient footage: %s (%v, %.4g fps)\n", video.Title, video.Duration, video.FrameRate)

	physician := quasaq.PhysicianProfile()
	nurse := quasaq.NurseProfile()

	// The physician demands the top of every scale.
	physQoP := quasaq.QoP{
		Spatial:  quasaq.SpatialDVD,
		Temporal: quasaq.TemporalSmooth,
		Color:    quasaq.ColorTrue,
		Security: quasaq.SecurityStandard, // patient data leaves the hospital encrypted
	}
	physReq := physician.Translate(physQoP)
	fmt.Printf("\nphysician QoP %v\n  -> QoS requirement: %v\n", physQoP, physReq)
	physDel, err := db.Deliver("srv-a", video.ID, physReq)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  -> plan: %s\n", physDel.Plan)

	// The nurse only needs to see what the clip is.
	nurseQoP := quasaq.QoP{
		Spatial:  quasaq.SpatialVCD,
		Temporal: quasaq.TemporalStandard,
		Color:    quasaq.ColorGray,
	}
	nurseReq := nurse.Translate(nurseQoP)
	fmt.Printf("\nnurse QoP %v\n  -> QoS requirement: %v\n", nurseQoP, nurseReq)
	nurseDel, err := db.Deliver("srv-b", video.ID, nurseReq)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  -> plan: %s\n", nurseDel.Plan)

	// The two deliveries consume very different resources.
	physNet := physDel.Plan.Demand(quasaq.StageDeliver)[1]
	nurseNet := nurseDel.Plan.Demand(quasaq.StageDeliver)[1]
	fmt.Printf("\nbandwidth: physician %.0f KB/s vs nurse %.0f KB/s (%.1fx)\n",
		physNet/1e3, nurseNet/1e3, physNet/nurseNet)

	// Run both to completion; the physician's stream must hold QoS.
	db.RunUntilIdle()
	fmt.Printf("physician playback: mean inter-frame %.2f ms (ideal %.2f), QoS ok: %v\n",
		physDel.Session.DelayStats().Mean(), physDel.Session.IdealInterFrameMillis(),
		physDel.Session.QoSOK())
	fmt.Printf("nurse playback: QoS ok: %v\n", nurseDel.Session.QoSOK())
}
