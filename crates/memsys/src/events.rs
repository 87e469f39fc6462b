//! Command-level event hooks: what the channel actually did, as a
//! deterministic event stream observers can ride.
//!
//! The per-bank engine ([`MemoryController`](crate::MemoryController))
//! records one [`MemEvent`] per device command it executes — demand ACTs,
//! precharges, elapsed REF boundaries, RFM/DRFM mitigation commands and
//! every individual victim-refresh activation — into a log that is **off by
//! default** (the perf sweeps pay nothing for it). The
//! [`Channel`](crate::Channel) forwards the gate and the drain, and a
//! [`Sim`](crate::Sim) run with [`Sim::observer`](crate::Sim::observer) set
//! pumps the drained events into a [`ChannelObserver`] after every scheduling
//! decision, in service order — so an observer sees exactly the command
//! sequence the device executed, bit-identically for any worker count.
//!
//! This is the ground-truth tap the `mint-redteam` escape oracle hangs off:
//! an observer that replays the event stream against an exact per-row
//! hammer-count model can state, post-run, whether any row crossed a given
//! Rowhammer threshold — closing the loop between the analytical security
//! bounds and the cycle-level performance pipeline.

/// One device-level command executed by the channel.
///
/// Times are picoseconds on the channel's clock. `bank` is the
/// channel-local bank index (`rank × banks_per_rank + flat_bank`, matching
/// [`DecodedAddr::channel_bank`](crate::DecodedAddr::channel_bank)) as
/// emitted by the engine; when a [`System`](crate::System) forwards events
/// from channel `c` it rebases them with
/// [`with_bank_offset`](MemEvent::with_bank_offset) so observers see
/// system-global bank indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemEvent {
    /// A demand activation: `row` opened in `bank` (a row miss).
    Act {
        /// Channel-local bank index.
        bank: u32,
        /// Activated row.
        row: u32,
        /// When the bank began the activation.
        at_ps: u64,
    },
    /// A precharge closing `bank`'s open row (row conflict, REF boundary,
    /// or a mitigation command behind the ACT).
    Pre {
        /// Channel-local bank index.
        bank: u32,
        /// When the row buffer closed.
        at_ps: u64,
    },
    /// An all-bank REF boundary this bank crossed; `ref_index` counts
    /// boundaries from t = 0 (the boundary at `k·tREFI` has index `k`).
    Ref {
        /// Channel-local bank index.
        bank: u32,
        /// 1-based REF boundary index (`at_ps / tREFI`).
        ref_index: u64,
        /// The boundary time (`ref_index × tREFI`).
        at_ps: u64,
    },
    /// An RFM command blocking `bank` (MINT+RFM threshold crossing).
    Rfm {
        /// Channel-local bank index.
        bank: u32,
        /// When the command was issued.
        at_ps: u64,
    },
    /// A directed-RFM command blocking `bank` (MC-PARA sample or Graphene
    /// threshold crossing).
    Drfm {
        /// Channel-local bank index.
        bank: u32,
        /// When the command was issued.
        at_ps: u64,
    },
    /// One victim-refresh activation performed as part of a mitigation:
    /// `row` was refreshed (clearing its disturbance) — and, being an
    /// activation, it silently hammers *its* neighbours.
    MitigativeRefresh {
        /// Channel-local bank index.
        bank: u32,
        /// The refreshed victim row.
        row: u32,
        /// When the mitigation fired.
        at_ps: u64,
    },
}

impl MemEvent {
    /// The bank the event happened on (channel-local as emitted; global
    /// after [`with_bank_offset`](Self::with_bank_offset)).
    #[must_use]
    pub fn bank(&self) -> u32 {
        match *self {
            MemEvent::Act { bank, .. }
            | MemEvent::Pre { bank, .. }
            | MemEvent::Ref { bank, .. }
            | MemEvent::Rfm { bank, .. }
            | MemEvent::Drfm { bank, .. }
            | MemEvent::MitigativeRefresh { bank, .. } => bank,
        }
    }

    /// The same event with its bank index shifted up by `offset` — how a
    /// multi-channel [`System`](crate::System) rebases a channel-local
    /// event stream into the system-global bank space (offset
    /// `channel × banks_per_channel`; an offset of 0 is the identity, so
    /// single-channel observers are untouched).
    #[must_use]
    pub fn with_bank_offset(self, offset: u32) -> Self {
        let mut out = self;
        match &mut out {
            MemEvent::Act { bank, .. }
            | MemEvent::Pre { bank, .. }
            | MemEvent::Ref { bank, .. }
            | MemEvent::Rfm { bank, .. }
            | MemEvent::Drfm { bank, .. }
            | MemEvent::MitigativeRefresh { bank, .. } => *bank += offset,
        }
        out
    }

    /// The event's timestamp (ps).
    #[must_use]
    pub fn at_ps(&self) -> u64 {
        match *self {
            MemEvent::Act { at_ps, .. }
            | MemEvent::Pre { at_ps, .. }
            | MemEvent::Ref { at_ps, .. }
            | MemEvent::Rfm { at_ps, .. }
            | MemEvent::Drfm { at_ps, .. }
            | MemEvent::MitigativeRefresh { at_ps, .. } => at_ps,
        }
    }

    /// Fixed-width checkpoint encoding: `[tag, bank, aux, at_ps]`, where
    /// `aux` is the row (`Act`/`MitigativeRefresh`), the REF boundary index
    /// (`Ref`), or zero. The inverse is [`decode_words`](Self::decode_words).
    #[must_use]
    pub fn encode_words(&self) -> [u64; 4] {
        match *self {
            MemEvent::Act { bank, row, at_ps } => [0, u64::from(bank), u64::from(row), at_ps],
            MemEvent::Pre { bank, at_ps } => [1, u64::from(bank), 0, at_ps],
            MemEvent::Ref {
                bank,
                ref_index,
                at_ps,
            } => [2, u64::from(bank), ref_index, at_ps],
            MemEvent::Rfm { bank, at_ps } => [3, u64::from(bank), 0, at_ps],
            MemEvent::Drfm { bank, at_ps } => [4, u64::from(bank), 0, at_ps],
            MemEvent::MitigativeRefresh { bank, row, at_ps } => {
                [5, u64::from(bank), u64::from(row), at_ps]
            }
        }
    }

    /// Decodes the `[tag, bank, aux, at_ps]` encoding of
    /// [`encode_words`](Self::encode_words).
    ///
    /// # Errors
    ///
    /// Errors on an unknown tag or a bank/row that no longer fits in `u32`.
    pub fn decode_words(words: [u64; 4]) -> Result<Self, String> {
        let [tag, bank, aux, at_ps] = words;
        let bank = u32::try_from(bank).map_err(|_| format!("event bank {bank} exceeds u32"))?;
        let row = || u32::try_from(aux).map_err(|_| format!("event row {aux} exceeds u32"));
        Ok(match tag {
            0 => MemEvent::Act {
                bank,
                row: row()?,
                at_ps,
            },
            1 => MemEvent::Pre { bank, at_ps },
            2 => MemEvent::Ref {
                bank,
                ref_index: aux,
                at_ps,
            },
            3 => MemEvent::Rfm { bank, at_ps },
            4 => MemEvent::Drfm { bank, at_ps },
            5 => MemEvent::MitigativeRefresh {
                bank,
                row: row()?,
                at_ps,
            },
            other => return Err(format!("unknown event tag {other}")),
        })
    }
}

/// Anything that wants to ride the channel's command stream: security
/// oracles, command-trace dumpers, custom statistics.
///
/// Events arrive in service order (the order the engine executed them),
/// which is deterministic for a given run — observers need no
/// synchronisation and can keep exact state.
pub trait ChannelObserver {
    /// One executed device command.
    fn on_event(&mut self, event: &MemEvent);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_cover_every_variant() {
        let events = [
            MemEvent::Act {
                bank: 1,
                row: 2,
                at_ps: 10,
            },
            MemEvent::Pre { bank: 2, at_ps: 20 },
            MemEvent::Ref {
                bank: 3,
                ref_index: 1,
                at_ps: 30,
            },
            MemEvent::Rfm { bank: 4, at_ps: 40 },
            MemEvent::Drfm { bank: 5, at_ps: 50 },
            MemEvent::MitigativeRefresh {
                bank: 6,
                row: 9,
                at_ps: 60,
            },
        ];
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.bank(), i as u32 + 1);
            assert_eq!(e.at_ps(), (i as u64 + 1) * 10);
        }
    }

    #[test]
    fn bank_offset_shifts_every_variant_and_zero_is_identity() {
        let events = [
            MemEvent::Act {
                bank: 1,
                row: 2,
                at_ps: 10,
            },
            MemEvent::Pre { bank: 2, at_ps: 20 },
            MemEvent::Ref {
                bank: 3,
                ref_index: 1,
                at_ps: 30,
            },
            MemEvent::Rfm { bank: 4, at_ps: 40 },
            MemEvent::Drfm { bank: 5, at_ps: 50 },
            MemEvent::MitigativeRefresh {
                bank: 6,
                row: 9,
                at_ps: 60,
            },
        ];
        for e in events {
            assert_eq!(e.with_bank_offset(0), e);
            let shifted = e.with_bank_offset(64);
            assert_eq!(shifted.bank(), e.bank() + 64);
            assert_eq!(shifted.at_ps(), e.at_ps(), "only the bank moves");
        }
    }

    #[test]
    fn word_codec_round_trips_every_variant() {
        let events = [
            MemEvent::Act {
                bank: 1,
                row: 2,
                at_ps: 10,
            },
            MemEvent::Pre { bank: 2, at_ps: 20 },
            MemEvent::Ref {
                bank: 3,
                ref_index: 7,
                at_ps: 30,
            },
            MemEvent::Rfm { bank: 4, at_ps: 40 },
            MemEvent::Drfm { bank: 5, at_ps: 50 },
            MemEvent::MitigativeRefresh {
                bank: 6,
                row: 9,
                at_ps: 60,
            },
        ];
        for e in events {
            assert_eq!(MemEvent::decode_words(e.encode_words()), Ok(e));
        }
        assert!(MemEvent::decode_words([6, 0, 0, 0])
            .unwrap_err()
            .contains("unknown event tag"));
        assert!(MemEvent::decode_words([0, u64::MAX, 0, 0])
            .unwrap_err()
            .contains("exceeds u32"));
    }
}
