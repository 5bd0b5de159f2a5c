//! Chrome-trace export: renders a [`SimTrace`] as the JSON event format
//! understood by `chrome://tracing` / [Perfetto](https://ui.perfetto.dev),
//! with one process per GPU and one thread per stream — the same way
//! PyTorch profiler traces look, so the overlap windows are immediately
//! visible.

use crate::fmtutil::json_escape as escape;
use olab_sim::{SimTrace, StreamKind};
use std::fmt::Write as _;

/// An extra interval to render alongside the task events — fault windows,
/// watchdog stalls, communicator rebuilds. Annotations live in their own
/// trace process (pid = number of GPUs), one thread per `track`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceAnnotation {
    /// Event label shown in the viewer.
    pub name: String,
    /// Row the event is drawn on (e.g. `"throttle"`, `"link"`, `"watchdog"`).
    pub track: String,
    /// Interval start, seconds.
    pub start_s: f64,
    /// Interval end, seconds.
    pub end_s: f64,
}

/// A sampled per-GPU counter series rendered as a Perfetto counter track
/// (`"ph": "C"` events) under the GPU's task timeline — the simulated
/// equivalent of the power/occupancy curves the paper reads from NVML.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterTrack {
    /// Counter name shown on the track (e.g. `"power_w"`).
    pub name: String,
    /// Device the track belongs to (trace pid).
    pub gpu: usize,
    /// `(time_s, value)` samples, ascending in time.
    pub points: Vec<(f64, f64)>,
}

/// Renders a trace as Chrome-trace JSON (an array of complete events).
///
/// Durations are emitted in microseconds (the format's native unit). Tasks
/// spanning several GPUs (collectives) appear once per participant.
pub fn to_chrome_trace(trace: &SimTrace) -> String {
    to_chrome_trace_annotated(trace, &[])
}

/// Like [`to_chrome_trace`], with extra annotation intervals rendered in a
/// dedicated process below the GPUs. With an empty slice the output is
/// byte-identical to [`to_chrome_trace`].
pub fn to_chrome_trace_annotated(trace: &SimTrace, notes: &[TraceAnnotation]) -> String {
    to_chrome_trace_full(trace, notes, &[])
}

/// Like [`to_chrome_trace_annotated`], with Perfetto counter tracks
/// appended after the task and annotation events. With empty slices the
/// output is byte-identical to [`to_chrome_trace`].
pub fn to_chrome_trace_full(
    trace: &SimTrace,
    notes: &[TraceAnnotation],
    counters: &[CounterTrack],
) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    for record in trace.records() {
        for gpu in &record.participants {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let tid = match record.stream {
                StreamKind::Compute => 0,
                StreamKind::Comm => 1,
            };
            let _ = write!(
                out,
                "  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": {}, \"tid\": {}}}",
                escape(&record.label.to_string()),
                record.stream,
                record.start.as_micros(),
                record.duration().as_micros(),
                gpu.index(),
                tid
            );
        }
    }
    // Annotations render in their own process, one thread per track, in
    // order of first appearance.
    let fault_pid = trace.gpus().len();
    let mut tracks: Vec<&str> = Vec::new();
    for note in notes {
        let tid = match tracks.iter().position(|t| *t == note.track) {
            Some(i) => i,
            None => {
                tracks.push(&note.track);
                tracks.len() - 1
            }
        };
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "  {{\"name\": \"{}\", \"cat\": \"fault\", \"ph\": \"X\", \
             \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": {}, \"tid\": {}}}",
            escape(&note.name),
            note.start_s * 1e6,
            (note.end_s - note.start_s).max(0.0) * 1e6,
            fault_pid,
            tid
        );
    }
    // Thread name metadata so the viewer labels the rows.
    for (g, _) in trace.gpus().iter().enumerate() {
        for (tid, name) in [(0, "compute"), (1, "comm")] {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "  {{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {g}, \
                 \"tid\": {tid}, \"args\": {{\"name\": \"gpu{g}/{name}\"}}}}"
            );
        }
    }
    for (tid, track) in tracks.iter().enumerate() {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "  {{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {fault_pid}, \
             \"tid\": {tid}, \"args\": {{\"name\": \"faults/{}\"}}}}",
            escape(track)
        );
    }
    // Counter tracks: one "ph": "C" event per sample, keyed by counter
    // name within the GPU's process so Perfetto draws a curve per track.
    for track in counters {
        let name = escape(&track.name);
        for &(t_s, value) in &track.points {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "  {{\"name\": \"{name}\", \"cat\": \"counter\", \"ph\": \"C\", \
                 \"ts\": {:.3}, \"pid\": {}, \"args\": {{\"{name}\": {:.6}}}}}",
                t_s * 1e6,
                track.gpu,
                value
            );
        }
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{execute, Machine};
    use olab_gpu::{Datapath, GpuSku, Precision};
    use olab_models::{memory::ActivationPolicy, ModelPreset};
    use olab_parallel::{fsdp, ExecutionMode};

    fn sample_trace() -> SimTrace {
        let sku = GpuSku::h100();
        let machine = Machine::stock(sku.clone(), 4);
        let plan = fsdp::FsdpPlan::new(
            ModelPreset::Gpt3Xl.config(),
            4,
            2,
            128,
            Precision::Fp16,
            Datapath::TensorCore,
            ActivationPolicy::Full,
        );
        let w = fsdp::fsdp_timeline(
            &plan,
            &sku,
            &machine.config().topology,
            ExecutionMode::Overlapped,
        );
        execute(&w, &machine).unwrap().trace
    }

    #[test]
    fn output_is_wellformed_json_array() {
        let json = to_chrome_trace(&sample_trace());
        assert!(json.trim_start().starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        crate::fmtutil::validate_json(&json).expect("plain export must parse");
    }

    #[test]
    fn every_task_appears_per_participant() {
        let trace = sample_trace();
        let json = to_chrome_trace(&trace);
        let events = json.matches("\"ph\": \"X\"").count();
        let expected: usize = trace.records().iter().map(|r| r.participants.len()).sum();
        assert_eq!(events, expected);
    }

    #[test]
    fn thread_metadata_names_both_streams() {
        let json = to_chrome_trace(&sample_trace());
        assert!(json.contains("gpu0/compute"));
        assert!(json.contains("gpu3/comm"));
    }

    #[test]
    fn no_annotations_is_byte_identical_to_plain_export() {
        let trace = sample_trace();
        assert_eq!(
            to_chrome_trace(&trace),
            to_chrome_trace_annotated(&trace, &[])
        );
    }

    #[test]
    fn annotations_render_in_their_own_process() {
        let trace = sample_trace();
        let notes = vec![
            TraceAnnotation {
                name: "throttle gpu1 x0.65".into(),
                track: "throttle".into(),
                start_s: 0.1,
                end_s: 0.2,
            },
            TraceAnnotation {
                name: "watchdog stall".into(),
                track: "watchdog".into(),
                start_s: 0.15,
                end_s: 0.3,
            },
        ];
        let json = to_chrome_trace_annotated(&trace, &notes);
        let fault_pid = trace.gpus().len();
        assert!(json.contains(&format!("\"pid\": {fault_pid}, \"tid\": 0")));
        assert!(json.contains("faults/throttle"));
        assert!(json.contains("faults/watchdog"));
        assert!(json.contains("\"cat\": \"fault\""));
        crate::fmtutil::validate_json(&json).expect("annotated export must parse");
    }

    #[test]
    fn escape_handles_quotes_and_controls() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny"), "x\\u000ay");
    }

    #[test]
    fn empty_counters_are_byte_identical_to_annotated_export() {
        let trace = sample_trace();
        let notes = vec![TraceAnnotation {
            name: "throttle gpu1 x0.65".into(),
            track: "throttle".into(),
            start_s: 0.1,
            end_s: 0.2,
        }];
        assert_eq!(
            to_chrome_trace_annotated(&trace, &notes),
            to_chrome_trace_full(&trace, &notes, &[])
        );
    }

    #[test]
    fn counter_tracks_render_as_counter_events_and_parse() {
        let trace = sample_trace();
        let notes = vec![TraceAnnotation {
            name: "stall \"ar\"".into(),
            track: "watchdog".into(),
            start_s: 0.05,
            end_s: 0.1,
        }];
        let counters = vec![
            CounterTrack {
                name: "power_w".into(),
                gpu: 0,
                points: vec![(0.0, 310.5), (0.1, 655.25)],
            },
            CounterTrack {
                name: "sm_occupancy".into(),
                gpu: 1,
                points: vec![(0.0, 0.75)],
            },
        ];
        let json = to_chrome_trace_full(&trace, &notes, &counters);
        crate::fmtutil::validate_json(&json).expect("full export must parse");
        assert_eq!(json.matches("\"ph\": \"C\"").count(), 3);
        assert!(json.contains("\"args\": {\"power_w\": 655.250000}"));
        assert!(json.contains("\"args\": {\"sm_occupancy\": 0.750000}"));
        assert!(json.contains("\"cat\": \"counter\""));
    }
}
