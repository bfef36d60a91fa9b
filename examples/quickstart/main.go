// Quickstart: open a QoS-aware multimedia database, run one QoS-enhanced
// query end to end, and watch the chosen plan stream on the virtual clock.
package main

import (
	"fmt"
	"log"
	"time"

	"quasaq"
)

func main() {
	// A three-server cluster with the paper's testbed capacities.
	db, err := quasaq.Open(quasaq.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// Ingest the 15-video corpus: catalog insertion with feature
	// extraction, offline replication of the quality ladder to every
	// site, and QoS-profile sampling.
	stored, err := db.AddVideos(quasaq.StandardCorpus(42))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d videos, %d MB of replicas across %v\n",
		len(db.Videos()), stored>>20, db.Sites())

	// Phase 1+2 in one call: the content part of the query finds the
	// video; the WITH QOS clause drives plan generation, LRB costing,
	// admission and reservation.
	qr, err := db.Query("srv-a",
		"SELECT * FROM videos WHERE title = 'cardiac-mri-patient-007' "+
			"WITH QOS (resolution >= VCD, resolution <= CIF, depth >= 16, fps >= 20)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("content phase matched %d video(s)\n", len(qr.Matches))
	fmt.Printf("chosen plan: %s\n", qr.Delivery.Plan)
	fmt.Printf("delivered quality: %v\n", qr.Delivery.Plan.Delivered)

	// Stream for ten virtual seconds and inspect progress.
	db.Advance(10 * time.Second)
	sess := qr.Delivery.Session
	fmt.Printf("after 10s: %d frames, %.1f KB delivered, mean inter-frame %.2f ms (ideal %.2f)\n",
		sess.FramesDelivered(), float64(sess.BytesDelivered())/1024,
		sess.DelayStats().Mean(), sess.IdealInterFrameMillis())

	// Drain to completion.
	db.RunUntilIdle()
	fmt.Printf("finished at t=%v, QoS ok: %v\n", db.Now(), sess.QoSOK())
	st := db.Stats()
	fmt.Printf("stats: %d queries, %d admitted, %d plans considered\n",
		st.Queries, st.Admitted, st.PlansGenerated)
}
