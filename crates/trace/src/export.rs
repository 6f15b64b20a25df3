//! Exporters: JSONL and Chrome `trace_event` JSON (Perfetto-loadable).

use std::collections::BTreeSet;
use std::io::{self, Write};

use serde::Value;

use crate::event::{DispatchKind, TraceEvent};
use crate::recorder::TraceLog;
use crate::telemetry::Telemetry;

/// Writes the log as JSON Lines: one [`TraceEvent`] object per line, in
/// simulation-time order.
pub fn write_jsonl<W: Write>(log: &TraceLog, mut w: W) -> io::Result<()> {
    for ev in &log.events {
        let line = serde_json::to_string(ev).map_err(io::Error::other)?;
        writeln!(w, "{line}")?;
    }
    Ok(())
}

/// Reads a JSON Lines event log back into a [`TraceLog`].
///
/// The inverse of [`write_jsonl`]: one [`TraceEvent`] per non-blank line.
/// Parse failures map to [`io::ErrorKind::InvalidData`] with the 1-based
/// line number attached; I/O errors keep their kind and also gain the line
/// number. JSONL carries events only, so the reconstructed log reports
/// `sample = 1.0` and `dropped = 0` — of what the file holds, nothing was
/// discarded.
pub fn read_jsonl<R: io::Read>(r: R) -> io::Result<TraceLog> {
    use std::io::BufRead;
    let mut events = Vec::new();
    for (i, line) in io::BufReader::new(r).lines().enumerate() {
        let line =
            line.map_err(|e| io::Error::new(e.kind(), format!("trace line {}: {e}", i + 1)))?;
        if line.trim().is_empty() {
            continue;
        }
        let ev: TraceEvent = serde_json::from_str(&line).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("trace line {}: {e}", i + 1),
            )
        })?;
        events.push(ev);
    }
    Ok(TraceLog {
        sample: 1.0,
        dropped: 0,
        events,
    })
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn us(t_ns: u64) -> Value {
    Value::F64(t_ns as f64 / 1000.0)
}

/// Greedily packs half-open spans `(start, end)` into lanes; returns one
/// lane index per span (input order preserved). Spans must be sorted by
/// `start`.
fn assign_lanes(spans: &[(u64, u64)]) -> Vec<usize> {
    let mut lane_ends: Vec<u64> = Vec::new();
    spans
        .iter()
        .map(|&(start, end)| {
            if let Some(i) = lane_ends.iter().position(|&e| e <= start) {
                lane_ends[i] = end;
                i
            } else {
                lane_ends.push(end);
                lane_ends.len() - 1
            }
        })
        .collect()
}

/// Builds a Chrome `trace_event` document from the log.
///
/// Layout: pid 0 holds one lane-packed `X` span per traced request plus
/// coordinator-side instants (timeouts, retries, hedges, aborts, crash
/// drops); pid `server + 1` holds that server's lane-packed service spans,
/// its scheduler-decision and hint-arrival instants, and a `queue_len`
/// counter track. Load the result in Perfetto or `chrome://tracing`.
pub fn chrome_trace(log: &TraceLog) -> Value {
    chrome_trace_with_telemetry(log, None)
}

/// [`chrome_trace`], optionally interleaving per-server `"C"` counter
/// tracks from folded [`Telemetry`]: one sample per epoch per server for
/// busy occupancy (percent of worker capacity), outstanding bottleneck
/// demand (ms), end-of-epoch queue depth, and the per-epoch
/// reorder/shed/retry/hedge/batch rates — so load and the scheduling
/// decisions it provoked sit on one Perfetto timeline.
pub fn chrome_trace_with_telemetry(log: &TraceLog, telemetry: Option<&Telemetry>) -> Value {
    let mut out: Vec<Value> = Vec::new();

    // Process metadata.
    let mut servers: BTreeSet<u32> = BTreeSet::new();
    for ev in &log.events {
        match *ev {
            TraceEvent::OpEnqueue { server, .. }
            | TraceEvent::SchedDecision { server, .. }
            | TraceEvent::ServiceEnd { server, .. }
            | TraceEvent::ServerCrash { server, .. }
            | TraceEvent::ServerRecover { server, .. }
            | TraceEvent::Batched { server, .. }
            | TraceEvent::HintArrive { server, .. }
            | TraceEvent::QueueSample { server, .. } => {
                servers.insert(server);
            }
            _ => {}
        }
    }
    let meta = |pid: u64, name: String| {
        obj(vec![
            ("name", Value::Str("process_name".into())),
            ("ph", Value::Str("M".into())),
            ("pid", Value::U64(pid)),
            ("tid", Value::U64(0)),
            ("args", obj(vec![("name", Value::Str(name))])),
        ])
    };
    out.push(meta(0, "requests".into()));
    for &s in &servers {
        out.push(meta(s as u64 + 1, format!("server {s}")));
    }

    // Request spans (arrival -> terminal), lane-packed on pid 0.
    let mut requests: Vec<(u64, u64, u64, &'static str)> = Vec::new(); // (req, start, end, suffix)
    {
        use std::collections::BTreeMap;
        let mut arrivals: BTreeMap<u64, u64> = BTreeMap::new();
        for ev in &log.events {
            match *ev {
                TraceEvent::RequestArrive { t_ns, request, .. } => {
                    arrivals.insert(request, t_ns);
                }
                TraceEvent::RequestComplete { t_ns, request, .. } => {
                    if let Some(a) = arrivals.remove(&request) {
                        requests.push((request, a, t_ns, ""));
                    }
                }
                TraceEvent::RequestAbort { t_ns, request } => {
                    if let Some(a) = arrivals.remove(&request) {
                        requests.push((request, a, t_ns, " (aborted)"));
                    }
                }
                TraceEvent::Shed { t_ns, request, .. } => {
                    if let Some(a) = arrivals.remove(&request) {
                        requests.push((request, a, t_ns, " (shed)"));
                    }
                }
                _ => {}
            }
        }
    }
    requests.sort_by_key(|&(_, start, _, _)| start);
    let spans: Vec<(u64, u64)> = requests.iter().map(|&(_, s, e, _)| (s, e)).collect();
    for (&(req, start, end, suffix), lane) in requests.iter().zip(assign_lanes(&spans)) {
        out.push(obj(vec![
            ("name", Value::Str(format!("request {req}{suffix}"))),
            ("cat", Value::Str("request".into())),
            ("ph", Value::Str("X".into())),
            ("pid", Value::U64(0)),
            ("tid", Value::U64(lane as u64 + 1)),
            ("ts", us(start)),
            ("dur", us(end - start)),
            ("args", obj(vec![("request", Value::U64(req))])),
        ]));
    }

    // Per-server service spans, lane-packed per server.
    for &server in &servers {
        let mut spans: Vec<(u64, u64, u64, u32)> = Vec::new(); // (start, end, req, op)
        for ev in &log.events {
            if let TraceEvent::ServiceEnd {
                t_ns,
                request,
                op,
                server: s,
                service_ns,
            } = *ev
            {
                if s == server {
                    spans.push((t_ns.saturating_sub(service_ns), t_ns, request, op));
                }
            }
        }
        spans.sort_by_key(|&(start, ..)| start);
        let bare: Vec<(u64, u64)> = spans.iter().map(|&(s, e, ..)| (s, e)).collect();
        for (&(start, end, req, op), lane) in spans.iter().zip(assign_lanes(&bare)) {
            out.push(obj(vec![
                ("name", Value::Str(format!("r{req}.{op}"))),
                ("cat", Value::Str("service".into())),
                ("ph", Value::Str("X".into())),
                ("pid", Value::U64(server as u64 + 1)),
                ("tid", Value::U64(lane as u64 + 1)),
                ("ts", us(start)),
                ("dur", us(end - start)),
                (
                    "args",
                    obj(vec![
                        ("request", Value::U64(req)),
                        ("op", Value::U64(op as u64)),
                    ]),
                ),
            ]));
        }
    }

    // Instants and counters.
    let instant = |name: String, pid: u64, t_ns: u64, args: Value| {
        obj(vec![
            ("name", Value::Str(name)),
            ("ph", Value::Str("i".into())),
            ("s", Value::Str("t".into())),
            ("pid", Value::U64(pid)),
            ("tid", Value::U64(0)),
            ("ts", us(t_ns)),
            ("args", args),
        ])
    };
    for ev in &log.events {
        match *ev {
            TraceEvent::SchedDecision {
                t_ns,
                request,
                op,
                server,
                ref rule,
                position,
                queue_len,
            } => out.push(instant(
                format!("dequeue {rule}"),
                server as u64 + 1,
                t_ns,
                obj(vec![
                    ("request", Value::U64(request)),
                    ("op", Value::U64(op as u64)),
                    ("position", Value::U64(position as u64)),
                    ("queue_len", Value::U64(queue_len as u64)),
                ]),
            )),
            TraceEvent::OpDispatch {
                t_ns,
                request,
                op,
                server,
                kind,
                attempt,
                ..
            } if kind != DispatchKind::First => out.push(instant(
                format!("{} r{request}.{op}", kind.as_str()),
                0,
                t_ns,
                obj(vec![
                    ("server", Value::U64(server as u64)),
                    ("attempt", Value::U64(attempt as u64)),
                ]),
            )),
            TraceEvent::OpTimeout {
                t_ns,
                request,
                op,
                attempt,
            } => out.push(instant(
                format!("timeout r{request}.{op}"),
                0,
                t_ns,
                obj(vec![("attempt", Value::U64(attempt as u64))]),
            )),
            TraceEvent::CrashDrop {
                t_ns,
                request,
                op,
                server,
            } => out.push(instant(
                format!("crash-drop r{request}.{op}"),
                0,
                t_ns,
                obj(vec![("server", Value::U64(server as u64))]),
            )),
            TraceEvent::Admitted {
                t_ns,
                request,
                slack_ns,
            } => out.push(instant(
                format!("admit r{request}"),
                0,
                t_ns,
                obj(vec![("slack_ms", Value::F64(slack_ns as f64 / 1e6))]),
            )),
            TraceEvent::Shed {
                t_ns,
                request,
                reason,
                server,
            } => out.push(instant(
                format!("shed {} r{request}", reason.as_str()),
                0,
                t_ns,
                obj(vec![("server", Value::U64(server as u64))]),
            )),
            TraceEvent::Batched {
                t_ns,
                request,
                op,
                server,
                size,
            } => out.push(instant(
                format!("batch r{request}.{op}"),
                server as u64 + 1,
                t_ns,
                obj(vec![("size", Value::U64(size as u64))]),
            )),
            TraceEvent::HintArrive {
                t_ns,
                request,
                server,
                eta_ns,
                remaining_ns,
            } => out.push(instant(
                format!("hint r{request}"),
                server as u64 + 1,
                t_ns,
                obj(vec![
                    ("eta_ms", Value::F64(eta_ns as f64 / 1e6)),
                    ("remaining_ms", Value::F64(remaining_ns as f64 / 1e6)),
                ]),
            )),
            TraceEvent::ServerCrash { t_ns, server } => out.push(instant(
                "crash".into(),
                server as u64 + 1,
                t_ns,
                obj(vec![]),
            )),
            TraceEvent::ServerRecover { t_ns, server } => out.push(instant(
                "recover".into(),
                server as u64 + 1,
                t_ns,
                obj(vec![]),
            )),
            TraceEvent::QueueSample {
                t_ns,
                server,
                queue_len,
                backlog_ns,
            } => out.push(obj(vec![
                ("name", Value::Str("queue".into())),
                ("ph", Value::Str("C".into())),
                ("pid", Value::U64(server as u64 + 1)),
                ("ts", us(t_ns)),
                (
                    "args",
                    obj(vec![
                        ("len", Value::U64(queue_len as u64)),
                        ("backlog_ms", Value::F64(backlog_ns as f64 / 1e6)),
                    ]),
                ),
            ])),
            _ => {}
        }
    }

    // Telemetry counter tracks: one sample per server per epoch, stamped
    // at the epoch's start so the value covers the whole bucket.
    if let Some(t) = telemetry {
        let counter = |name: &str, pid: u64, t_ns: u64, args: Value| {
            obj(vec![
                ("name", Value::Str(name.into())),
                ("ph", Value::Str("C".into())),
                ("pid", Value::U64(pid)),
                ("ts", us(t_ns)),
                ("args", args),
            ])
        };
        let capacity = (u64::from(t.workers) * t.epoch_ns) as f64;
        for series in t.servers.values() {
            let pid = series.server as u64 + 1;
            for e in 0..t.epochs {
                let t_ns = e as u64 * t.epoch_ns;
                out.push(counter(
                    "tm busy %",
                    pid,
                    t_ns,
                    obj(vec![(
                        "busy",
                        Value::F64(series.busy_ns[e] as f64 * 100.0 / capacity),
                    )]),
                ));
                out.push(counter(
                    "tm demand ms",
                    pid,
                    t_ns,
                    obj(vec![(
                        "demand",
                        Value::F64(series.demand_ns[e] as f64 / 1e6),
                    )]),
                ));
                out.push(counter(
                    "tm depth",
                    pid,
                    t_ns,
                    obj(vec![("len", Value::U64(series.queue_len[e] as u64))]),
                ));
                out.push(counter(
                    "tm rates",
                    pid,
                    t_ns,
                    obj(vec![
                        ("reorders", Value::U64(series.reorders[e] as u64)),
                        ("sheds", Value::U64(series.sheds[e] as u64)),
                        ("retries", Value::U64(series.retries[e] as u64)),
                        ("hedges", Value::U64(series.hedges[e] as u64)),
                        ("batched", Value::U64(series.batched_ops[e] as u64)),
                        ("hints", Value::U64(series.hints[e] as u64)),
                    ]),
                ));
            }
        }
    }

    obj(vec![
        ("traceEvents", Value::Array(out)),
        ("displayTimeUnit", Value::Str("ms".into())),
    ])
}

/// Serializes [`chrome_trace_with_telemetry`] to a writer.
pub fn write_chrome_with_telemetry<W: Write>(
    log: &TraceLog,
    telemetry: &Telemetry,
    mut w: W,
) -> io::Result<()> {
    let doc = serde_json::to_string(&chrome_trace_with_telemetry(log, Some(telemetry)))
        .map_err(io::Error::other)?;
    w.write_all(doc.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_log() -> TraceLog {
        TraceLog {
            sample: 1.0,
            dropped: 0,
            events: vec![
                TraceEvent::RequestArrive {
                    t_ns: 0,
                    request: 1,
                    keys: 1,
                    fanout: 1,
                },
                TraceEvent::OpDispatch {
                    t_ns: 0,
                    request: 1,
                    op: 0,
                    server: 0,
                    attempt: 0,
                    kind: DispatchKind::First,
                    est_ns: 100,
                    bytes: 64,
                },
                TraceEvent::OpEnqueue {
                    t_ns: 50,
                    request: 1,
                    op: 0,
                    server: 0,
                    queue_len: 1,
                },
                TraceEvent::QueueSample {
                    t_ns: 50,
                    server: 0,
                    queue_len: 1,
                    backlog_ns: 100,
                },
                TraceEvent::SchedDecision {
                    t_ns: 60,
                    request: 1,
                    op: 0,
                    server: 0,
                    rule: "policy-order".into(),
                    position: 0,
                    queue_len: 1,
                },
                TraceEvent::ServiceEnd {
                    t_ns: 160,
                    request: 1,
                    op: 0,
                    server: 0,
                    service_ns: 100,
                },
                TraceEvent::OpResponse {
                    t_ns: 200,
                    request: 1,
                    op: 0,
                    server: 0,
                    accepted: true,
                },
                TraceEvent::RequestComplete {
                    t_ns: 200,
                    request: 1,
                    rct_ns: 200,
                },
            ],
        }
    }

    #[test]
    fn jsonl_is_one_event_per_line() {
        let mut buf = Vec::new();
        write_jsonl(&tiny_log(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), tiny_log().events.len());
        for line in lines {
            let _: TraceEvent = serde_json::from_str(line).unwrap();
        }
    }

    #[test]
    fn chrome_trace_is_wellformed() {
        let doc = chrome_trace(&tiny_log());
        let json = serde_json::to_string(&doc).unwrap();
        // Parses back and has the container key the viewers expect.
        let back: Value = serde_json::from_str(&json).unwrap();
        match &back {
            Value::Object(fields) => {
                let events = fields
                    .iter()
                    .find(|(k, _)| k == "traceEvents")
                    .map(|(_, v)| v)
                    .unwrap();
                match events {
                    Value::Array(items) => {
                        // Metadata + request span + service span + counter +
                        // decision instant at minimum.
                        assert!(items.len() >= 5, "only {} events", items.len());
                    }
                    other => panic!("traceEvents is {other:?}"),
                }
            }
            other => panic!("root is {other:?}"),
        }
    }

    #[test]
    fn jsonl_roundtrips_through_read() {
        let log = tiny_log();
        let mut buf = Vec::new();
        write_jsonl(&log, &mut buf).unwrap();
        let back = read_jsonl(&buf[..]).unwrap();
        assert_eq!(back.events, log.events);
        assert_eq!(back.sample, 1.0);
        assert_eq!(back.dropped, 0);
    }

    #[test]
    fn read_jsonl_skips_blank_lines_and_flags_bad_ones() {
        let mut buf = Vec::new();
        write_jsonl(&tiny_log(), &mut buf).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.push('\n'); // trailing blank line is fine
        assert_eq!(
            read_jsonl(text.as_bytes()).unwrap().events.len(),
            tiny_log().events.len()
        );

        text.push_str("{not json}\n");
        let err = read_jsonl(text.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let n = tiny_log().events.len() + 2; // + blank line + bad line
        assert!(
            err.to_string().contains(&format!("trace line {n}")),
            "{err}"
        );
    }

    #[test]
    fn read_jsonl_keeps_io_error_kind_and_line() {
        struct FailAfterFirstLine {
            sent: bool,
        }
        impl io::Read for FailAfterFirstLine {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.sent {
                    return Err(io::Error::new(io::ErrorKind::TimedOut, "link died"));
                }
                self.sent = true;
                let line = b"{\"ev\":\"request_arrive\",\"t_ns\":0,\"request\":1,\"keys\":1,\"fanout\":1}\n";
                buf[..line.len()].copy_from_slice(line);
                Ok(line.len())
            }
        }
        let err = read_jsonl(FailAfterFirstLine { sent: false }).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(err.to_string().contains("trace line 2"), "{err}");
    }

    #[test]
    fn overload_events_render_in_chrome_trace() {
        use crate::event::ShedReason;
        let log = TraceLog {
            sample: 1.0,
            dropped: 0,
            events: vec![
                TraceEvent::RequestArrive {
                    t_ns: 0,
                    request: 1,
                    keys: 1,
                    fanout: 1,
                },
                TraceEvent::Admitted {
                    t_ns: 0,
                    request: 1,
                    slack_ns: 2_000_000,
                },
                TraceEvent::Batched {
                    t_ns: 40,
                    request: 1,
                    op: 0,
                    server: 3,
                    size: 2,
                },
                TraceEvent::RequestArrive {
                    t_ns: 10,
                    request: 2,
                    keys: 1,
                    fanout: 1,
                },
                TraceEvent::Shed {
                    t_ns: 10,
                    request: 2,
                    reason: ShedReason::Admission,
                    server: 3,
                },
            ],
        };
        let json = serde_json::to_string(&chrome_trace(&log)).unwrap();
        // The shed request closes its span with a "(shed)" marker, and all
        // three overload instants appear (batch on the server's track).
        assert!(json.contains("request 2 (shed)"), "{json}");
        assert!(json.contains("admit r1"), "{json}");
        assert!(json.contains("shed admission r2"), "{json}");
        assert!(json.contains("batch r1.0"), "{json}");
        assert!(json.contains("server 3"), "{json}");
    }

    #[test]
    fn hint_instants_render_on_the_server_track() {
        let log = TraceLog {
            sample: 1.0,
            dropped: 0,
            events: vec![TraceEvent::HintArrive {
                t_ns: 500,
                request: 4,
                server: 2,
                eta_ns: 2_000_000,
                remaining_ns: 1_000_000,
            }],
        };
        let json = serde_json::to_string(&chrome_trace(&log)).unwrap();
        assert!(json.contains("hint r4"), "{json}");
        assert!(json.contains("server 2"), "{json}");
        assert!(json.contains("remaining_ms"), "{json}");
    }

    #[test]
    fn telemetry_counter_tracks_render_per_epoch() {
        use crate::telemetry::{fold, TelemetryConfig};
        let log = tiny_log();
        let t = fold(
            &log,
            &TelemetryConfig {
                epoch_ns: 100,
                workers: 1,
            },
        );
        let mut buf = Vec::new();
        write_chrome_with_telemetry(&log, &t, &mut buf).unwrap();
        let json = String::from_utf8(buf).unwrap();
        assert!(json.contains("tm busy %"), "{json}");
        assert!(json.contains("tm demand ms"), "{json}");
        assert!(json.contains("tm depth"), "{json}");
        assert!(json.contains("tm rates"), "{json}");
        // Without telemetry the counter tracks are absent and the document
        // is byte-identical to the plain export.
        let plain = serde_json::to_string(&chrome_trace(&log)).unwrap();
        assert!(!plain.contains("tm busy %"));
        assert_eq!(
            plain,
            serde_json::to_string(&chrome_trace_with_telemetry(&log, None)).unwrap()
        );
    }

    #[test]
    fn lane_packing_reuses_free_lanes() {
        // Two disjoint spans share a lane; an overlapping one gets lane 1.
        let lanes = assign_lanes(&[(0, 10), (5, 15), (20, 30)]);
        assert_eq!(lanes, vec![0, 1, 0]);
    }
}
