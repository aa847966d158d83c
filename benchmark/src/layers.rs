//! The traced run's attribution: which layer one kernel event's host time
//! belongs to, read from outside the program.
//!
//! The stepped repetition builds the world with a one-event kernel trace,
//! calls `World::step()` once per event, and hands the retained trace
//! event to [`classify`]. Layers are the crates. Anything this module
//! cannot parse lands in [`Layer::Unattributed`] and is reported, never an
//! error: a later change may reword the trace text and cannot edit this
//! directory.

use encompass_sim::{CpuId, NodeId, Pid};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// Kernel-only events: no process handler ran (cancelled timer,
    /// message to a dead process, fault application).
    Sim,
    Guardian,
    Storage,
    Audit,
    Tmf,
    TxTable,
    Encompass,
    Shard,
    Unattributed,
}

impl Layer {
    pub const ALL: [Layer; 9] = [
        Layer::Sim,
        Layer::Guardian,
        Layer::Storage,
        Layer::Audit,
        Layer::Tmf,
        Layer::TxTable,
        Layer::Encompass,
        Layer::Shard,
        Layer::Unattributed,
    ];

    /// Metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Sim => "sim.kernel_only",
            Layer::Guardian => "guardian",
            Layer::Storage => "storage",
            Layer::Audit => "audit",
            Layer::Tmf => "tmf",
            Layer::TxTable => "tmf.txtable",
            Layer::Encompass => "encompass",
            Layer::Shard => "shard",
            Layer::Unattributed => "trace.unattributed",
        }
    }

    /// The layer whose code handles events delivered to a process of this
    /// `Process::kind`.
    pub fn of_process_kind(kind: &str) -> Layer {
        match kind {
            "discprocess" => Layer::Storage,
            "auditprocess" | "backoutprocess" | "dumpprocess" => Layer::Audit,
            "tmp" => Layer::Tmf,
            "txtable" => Layer::TxTable,
            "tcp" | "server" | "server-class-queue" => Layer::Encompass,
            "suspense-monitor" => Layer::Shard,
            _ => Layer::Unattributed,
        }
    }
}

/// What the kernel's trace line says about one event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Parsed<'a> {
    /// A handler ran in `dst`; `payload` is the message's Rust type name
    /// (empty for timer, start and system events).
    Handler {
        dst: Pid,
        payload: &'a str,
        timer: bool,
    },
    /// The kernel made a note of its own and ran no handler.
    KernelOnly,
    Unknown,
}

/// Parse `\N<node>.<cpu>.p<index>` at the start of `s`; returns the pid
/// and the rest.
fn parse_pid(s: &str) -> Option<(Pid, &str)> {
    let s = s.strip_prefix("\\N")?;
    let (node, s) = s.split_once('.')?;
    let (cpu, s) = s.split_once(".p")?;
    let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    let pid = Pid {
        node: NodeId(node.parse().ok()?),
        cpu: CpuId(cpu.parse().ok()?),
        index: s[..end].parse().ok()?,
    };
    Some((pid, &s[end..]))
}

/// Read one kernel trace event (`kind`, `detail`) as the kernel writes them
/// today: `deliver "<src>-><dst> <payload type>"`, `timer "<pid> timer …"`,
/// `start "<pid>"`, `system "<pid> <event>"`.
pub fn parse_event<'a>(kind: &str, detail: &'a str) -> Parsed<'a> {
    let handler = |dst, payload, timer| Parsed::Handler {
        dst,
        payload,
        timer,
    };
    match kind {
        "deliver" => (|| {
            let (_src, rest) = parse_pid(detail)?;
            let (dst, rest) = parse_pid(rest.strip_prefix("->")?)?;
            Some(handler(dst, rest.strip_prefix(' ')?, false))
        })()
        .unwrap_or(Parsed::Unknown),
        "timer" | "start" | "system" => match parse_pid(detail) {
            Some((dst, _)) => handler(dst, "", kind == "timer"),
            None => Parsed::Unknown,
        },
        "fault" | "msg.cut" => Parsed::KernelOnly,
        _ => Parsed::Unknown,
    }
}

/// Layer of a parsed event, given the destination's process kind. A
/// process-pair protocol message (checkpoint, snapshot, backup hello) is
/// guardian work whichever pair receives it.
pub fn classify(parsed: Parsed<'_>, kind_of: impl FnOnce(Pid) -> Option<&'static str>) -> Layer {
    match parsed {
        Parsed::Handler { payload, .. } if payload.starts_with("guardian::pair::") => {
            Layer::Guardian
        }
        Parsed::Handler { dst, .. } => {
            kind_of(dst).map_or(Layer::Unattributed, Layer::of_process_kind)
        }
        Parsed::KernelOnly => Layer::Sim,
        Parsed::Unknown => Layer::Unattributed,
    }
}

/// Host time and event counts per layer, summed over stepped repetitions.
#[derive(Clone, Debug, Default)]
pub struct LayerTimes {
    ns: [u64; Layer::ALL.len()],
    events: [u64; Layer::ALL.len()],
    pub timer_ns: u64,
    pub commits: u64,
}

impl LayerTimes {
    pub fn record(&mut self, layer: Layer, timer: bool, ns: u64) {
        self.ns[layer as usize] += ns;
        self.events[layer as usize] += 1;
        if timer {
            self.timer_ns += ns;
        }
    }

    pub fn merge(&mut self, other: &LayerTimes) {
        for i in 0..Layer::ALL.len() {
            self.ns[i] += other.ns[i];
            self.events[i] += other.events[i];
        }
        self.timer_ns += other.timer_ns;
        self.commits += other.commits;
    }

    pub fn ns(&self, layer: Layer) -> u64 {
        self.ns[layer as usize]
    }

    pub fn events(&self, layer: Layer) -> u64 {
        self.events[layer as usize]
    }

    /// Host time inside `step()` over all layers.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(node: u8, cpu: u8, index: u32) -> Pid {
        Pid {
            node: NodeId(node),
            cpu: CpuId(cpu),
            index,
        }
    }

    #[test]
    fn parses_the_kernel_trace_lines_of_today() {
        // built with the simulator's own Display impls, so a change to the
        // pid format shows here first
        let (a, b) = (pid(0, 1, 17), pid(63, 2, 4021));
        assert_eq!(
            parse_event("deliver", &format!("{a}->{b} tmf::tmp::TmpMsg")),
            Parsed::Handler {
                dst: b,
                payload: "tmf::tmp::TmpMsg",
                timer: false
            }
        );
        assert_eq!(
            parse_event("timer", &format!("{b} timer TimerId(9) tag 3")),
            Parsed::Handler {
                dst: b,
                payload: "",
                timer: true
            }
        );
        assert_eq!(
            parse_event("start", &format!("{a}")),
            Parsed::Handler {
                dst: a,
                payload: "",
                timer: false
            }
        );
        assert_eq!(
            parse_event("system", &format!("{a} CpuDown(\\N0, cpu2)")),
            Parsed::Handler {
                dst: a,
                payload: "",
                timer: false
            }
        );
        // the driver's external sends use a sentinel source index
        let ext = pid(0, 0, u32::MAX);
        assert!(matches!(
            parse_event("deliver", &format!("{ext}->{a} alloc::string::String")),
            Parsed::Handler { dst, .. } if dst == a
        ));
        assert_eq!(
            parse_event("fault", "kill-cpu \\N0 cpu1"),
            Parsed::KernelOnly
        );
        assert_eq!(parse_event("msg.cut", "whatever"), Parsed::KernelOnly);
    }

    #[test]
    fn garbage_is_unattributed_not_an_error() {
        for (kind, detail) in [
            ("deliver", ""),
            ("deliver", "no pids here"),
            ("deliver", "\\N0.1.p5 -> \\N0.1.p6 X"),
            ("deliver", "\\N0.1.p5->\\N0.1.pX Y"),
            ("deliver", "\\N999.1.p5->\\N0.1.p6 Y"),
            ("timer", "p5"),
            ("invented-kind", "\\N0.1.p5"),
            ("pair.takeover", "$TMP"),
        ] {
            assert_eq!(
                parse_event(kind, detail),
                Parsed::Unknown,
                "{kind} {detail:?}"
            );
            assert_eq!(
                classify(parse_event(kind, detail), |_| Some("tmp")),
                Layer::Unattributed
            );
        }
    }

    #[test]
    fn classification_follows_the_layer_table() {
        let dst = pid(0, 0, 1);
        let to = |payload, kind: &'static str| {
            classify(
                Parsed::Handler {
                    dst,
                    payload,
                    timer: false,
                },
                |_| Some(kind),
            )
        };
        assert_eq!(
            to("guardian::pair::PairMsg", "discprocess"),
            Layer::Guardian
        );
        assert_eq!(to("x::Y", "discprocess"), Layer::Storage);
        assert_eq!(to("x::Y", "auditprocess"), Layer::Audit);
        assert_eq!(to("x::Y", "backoutprocess"), Layer::Audit);
        assert_eq!(to("x::Y", "dumpprocess"), Layer::Audit);
        assert_eq!(to("x::Y", "tmp"), Layer::Tmf);
        assert_eq!(to("x::Y", "txtable"), Layer::TxTable);
        assert_eq!(to("x::Y", "tcp"), Layer::Encompass);
        assert_eq!(to("x::Y", "server"), Layer::Encompass);
        assert_eq!(to("x::Y", "server-class-queue"), Layer::Encompass);
        assert_eq!(to("x::Y", "suspense-monitor"), Layer::Shard);
        assert_eq!(to("x::Y", "never-heard-of-it"), Layer::Unattributed);
        assert_eq!(classify(Parsed::KernelOnly, |_| None), Layer::Sim);
        let unknown_pid = classify(
            Parsed::Handler {
                dst,
                payload: "",
                timer: true,
            },
            |_| None,
        );
        assert_eq!(unknown_pid, Layer::Unattributed);
    }

    #[test]
    fn layer_times_add_up() {
        let mut a = LayerTimes::default();
        a.record(Layer::Storage, false, 100);
        a.record(Layer::Tmf, true, 50);
        a.commits = 2;
        let mut b = LayerTimes::default();
        b.record(Layer::Storage, false, 10);
        b.commits = 1;
        a.merge(&b);
        assert_eq!(a.ns(Layer::Storage), 110);
        assert_eq!(a.events(Layer::Storage), 2);
        assert_eq!(a.total_ns(), 160);
        assert_eq!(a.timer_ns, 50);
        assert_eq!(a.commits, 3);
    }
}
