package main

import "time"

// layerMetrics computes the per-layer metrics of a traced run from its
// spans, the replays' own tallies and the traced pass.
func layerMetrics(spans []span, lr *ladderResult, tp *pass) map[string]metric {
	m := map[string]metric{}
	us := func(name string) float64 { return median(durations(spans, name)) / 1e3 }
	self, _ := selfTimes(spans)
	selfOf := func(name string) []float64 {
		var out []float64
		for i := range spans {
			if spans[i].Name == name {
				out = append(out, float64(self[spans[i].ID]))
			}
		}
		return out
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	m["asm.assemble_us"] = metric{us("asm.assemble"), "us"}
	m["ascl.compile_us"] = metric{us("ascl.compile"), "us"}
	m["isa.decode_us"] = metric{us("isa.decode"), "us"}
	m["isa.blocks_us"] = metric{us("isa.blocks"), "us"}

	served := float64(tp.served + lr.served)
	m["progcache.hit_ratio"] = metric{ratio(float64(tp.cacheHits+lr.cacheHits), served), "ratio"}
	m["pool.get_us"] = metric{us("pool.get"), "us"}
	m["pool.put_us"] = metric{us("pool.put"), "us"}
	m["pool.hit_ratio"] = metric{ratio(float64(tp.poolHits+lr.poolHits), served), "ratio"}

	m["asc.new_ms"] = metric{us("asc.new") / 1e3, "ms"}
	m["asc.reset_us"] = metric{us("asc.reset"), "us"}
	m["core.ns_per_cycle"] = metric{ratio(lr.runNs, float64(lr.refCycles)), "ns"}
	m["core.ns_per_instruction"] = metric{ratio(lr.runNs, float64(lr.refInsts)), "ns"}
	m["core.self_share"] = metric{1 - ratio(lr.replayNs, lr.runNs), "ratio"}

	md := lr.model
	var fallbacks int64
	for i, r := range fallbackReasons {
		fallbacks += md.Fallbacks[i]
		m["core.block_fallbacks."+r] = metric{float64(md.Fallbacks[i]), "count"}
	}
	m["core.block_dispatch_ratio"] = metric{ratio(float64(md.BlockDispatches), float64(md.BlockDispatches+fallbacks)), "ratio"}
	for i, c := range causes {
		m["core.idle_cycles."+c] = metric{float64(md.IdleBy[i]), "cycles"}
		m["core.stall_cycles."+c] = metric{float64(md.StallBy[i]), "cycles"}
	}
	m["core.contention"] = metric{float64(md.Contention), "cycles"}

	m["machine.ns_per_pe_op"] = metric{ratio(lr.replayNs, lr.peOps), "ns"}
	m["machine.exec_share"] = metric{ratio(lr.replayNs, lr.runNs), "ratio"}
	m["machine.sharded_job_share"] = metric{ratio(float64(lr.sharded), float64(lr.jobs)), "ratio"}
	m["machine.restore_us"] = metric{us("machine.restore"), "us"}
	m["machine.snapshot_kb"] = metric{median(lr.snapshotBytes) / 1024, "KiB"}

	m["gang.ns_per_lane_cycle"] = metric{ratio(lr.gangNs, float64(lr.laneCycles)), "ns"}
	m["gang.speedup_vs_solo"] = metric{ratio(lr.soloNs, lr.gangNs), "x"}
	m["gang.peel_ratio"] = metric{ratio(float64(lr.peeled), float64(lr.lanes)), "ratio"}

	m["server.handler_us"] = metric{us("server.handler"), "us"}
	m["server.self_us"] = metric{median(lr.serverSelf) / 1e3, "us"}
	m["server.batch_handler_ms"] = metric{us("server.batch_handler") / 1e3, "ms"}

	m["client.http_us"] = metric{median(selfOf("client.roundtrip")) / 1e3, "us"}
	m["client.json_encode_us"] = metric{us("client.json_encode"), "us"}
	m["client.json_decode_us"] = metric{us("client.json_decode"), "us"}

	var forwards []float64
	for i := range spans {
		if spans[i].Name == "gateway.batch_handler" {
			n := 0
			for j := range spans {
				if spans[j].Parent == spans[i].ID && spans[j].Name == "server.batch_handler" {
					n++
				}
			}
			forwards = append(forwards, float64(n))
		}
	}
	m["gateway.overhead_ms"] = metric{median(selfOf("gateway.batch_handler")) / float64(time.Millisecond), "ms"}
	m["gateway.forwards_per_batch"] = metric{mean(forwards), "count"}
	m["gateway.retries"] = metric{float64(lr.retries), "count"}
	return m
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(max(len(xs), 1))
}
