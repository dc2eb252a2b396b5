//! Frame payload modelling.
//!
//! The paper derives communication costs from "the amount of data exchanged
//! and the approximate characteristics of the communication link" (§5.3).
//! This module provides that derivation: synthetic sensor frames (ECG,
//! accelerometer …) as real byte buffers, link profiles with
//! bandwidth/latency, and the resulting per-message transfer times that the
//! workload generators feed into [`hsa_tree::CostModel`].

use hsa_graph::Cost;
use serde::{Deserialize, Serialize};

/// A link profile: fixed per-message latency plus serialisation rate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkProfile {
    /// Per-message overhead in ticks (µs).
    pub latency_ticks: u64,
    /// Throughput in bytes per tick·10⁻³ (i.e. kB/s when a tick is 1 µs is
    /// `bytes_per_milli_tick`; 1 byte/ms ≡ 1).
    pub bytes_per_milli_tick: u64,
}

impl LinkProfile {
    /// A Bluetooth-1.2-class link (~700 kbit/s, ~10 ms setup): the sensor
    /// boxes of the MobiHealth scenario.
    pub const BLUETOOTH: LinkProfile = LinkProfile {
        latency_ticks: 10_000,
        bytes_per_milli_tick: 87,
    };
    /// A 2.5G/GPRS-class uplink (~40 kbit/s, ~300 ms RTT): PDA to back-end.
    pub const GPRS: LinkProfile = LinkProfile {
        latency_ticks: 300_000,
        bytes_per_milli_tick: 5,
    };
    /// An 802.11b-class link (~5 Mbit/s effective, ~2 ms).
    pub const WIFI: LinkProfile = LinkProfile {
        latency_ticks: 2_000,
        bytes_per_milli_tick: 625,
    };

    /// Transfer time of `len` bytes over this link.
    pub fn transfer_time(&self, len: usize) -> Cost {
        if self.bytes_per_milli_tick == 0 {
            return Cost::MAX;
        }
        // ticks = latency + bytes / (bytes per milli-tick) * 1000
        let ser = (len as u64).saturating_mul(1000) / self.bytes_per_milli_tick;
        Cost::new(self.latency_ticks.saturating_add(ser))
    }
}

/// Builds a synthetic multi-channel sensor frame: `samples` samples of
/// `channels` × 16-bit values with an 8-byte header — the shape of an ECG
/// or accelerometer frame in the tele-monitoring scenario.
pub fn sensor_frame(channels: usize, samples: usize, seq: u32) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + channels * samples * 2);
    buf.extend_from_slice(&0x4652_414Du32.to_be_bytes()); // "FRAM"
    buf.extend_from_slice(&seq.to_be_bytes());
    for i in 0..samples {
        for c in 0..channels {
            // Deterministic pseudo-signal: cheap, reproducible, non-constant.
            let v = ((i as u32)
                .wrapping_mul(2654435761)
                .wrapping_add(c as u32 * 97)
                & 0xFFFF) as u16;
            buf.extend_from_slice(&v.to_be_bytes());
        }
    }
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_has_expected_size_and_header() {
        let f = sensor_frame(3, 256, 7);
        assert_eq!(f.len(), 8 + 3 * 256 * 2);
        assert_eq!(&f[0..4], &0x4652_414Du32.to_be_bytes());
        assert_eq!(&f[4..8], &7u32.to_be_bytes());
    }

    #[test]
    fn frames_are_deterministic() {
        assert_eq!(sensor_frame(2, 10, 1), sensor_frame(2, 10, 1));
        assert_ne!(sensor_frame(2, 10, 1), sensor_frame(2, 10, 2));
    }

    #[test]
    fn transfer_time_scales_with_size_and_link() {
        let small = LinkProfile::BLUETOOTH.transfer_time(100);
        let large = LinkProfile::BLUETOOTH.transfer_time(10_000);
        assert!(large > small);
        // GPRS is slower than WiFi for the same payload.
        let p = 5_000;
        assert!(LinkProfile::GPRS.transfer_time(p) > LinkProfile::WIFI.transfer_time(p));
    }

    #[test]
    fn zero_rate_link_is_infinite() {
        let dead = LinkProfile {
            latency_ticks: 1,
            bytes_per_milli_tick: 0,
        };
        assert_eq!(dead.transfer_time(1), Cost::MAX);
    }

    #[test]
    fn ecg_frame_over_bluetooth_is_milliseconds() {
        // 1 s of 256 Hz single-channel ECG ≈ 520 bytes → ~16 ms incl. setup.
        let f = sensor_frame(1, 256, 0);
        let t = LinkProfile::BLUETOOTH.transfer_time(f.len());
        assert!(t > Cost::new(10_000) && t < Cost::new(30_000), "{t}");
    }
}
