//! Property tests: every codec must round-trip arbitrary inputs, and the
//! header-derived statistics used by the pruning rules (Propositions 4–5)
//! must actually bound the encoded quantities.

use etsqp_encoding::{chimp, delta_rle, elf, f64_to_ordered_i64, gorilla, rle, ts2diff, Encoding};
use proptest::prelude::*;

/// Sensor-like series: a random walk with bounded steps — the shape the
/// Delta–Repeat–Packing encoders are designed for.
fn sensor_series() -> impl Strategy<Value = Vec<i64>> {
    (
        any::<i64>(),
        proptest::collection::vec(-1000i64..1000, 0..500),
    )
        .prop_map(|(start, steps)| {
            let mut v = start % 1_000_000_007;
            let mut out = Vec::with_capacity(steps.len() + 1);
            out.push(v);
            for s in steps {
                v = v.wrapping_add(s);
                out.push(v);
            }
            out
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn int_codecs_roundtrip_sensor_series(values in sensor_series()) {
        for enc in [
            Encoding::Plain,
            Encoding::Ts2Diff,
            Encoding::Ts2DiffOrder2,
            Encoding::Rle,
            Encoding::DeltaRle,
            Encoding::Sprintz,
            Encoding::Rlbe,
            Encoding::Gorilla,
        ] {
            let bytes = enc.encode_i64(&values);
            let back = enc.decode_i64(&bytes).unwrap();
            prop_assert_eq!(&back, &values, "codec {}", enc.name());
        }
    }

    #[test]
    fn int_codecs_roundtrip_adversarial(values in proptest::collection::vec(any::<i64>(), 0..80)) {
        for enc in [
            Encoding::Plain,
            Encoding::Ts2Diff,
            Encoding::Ts2DiffOrder2,
            Encoding::Rle,
            Encoding::DeltaRle,
            Encoding::Sprintz,
            Encoding::Gorilla,
        ] {
            let bytes = enc.encode_i64(&values);
            let back = enc.decode_i64(&bytes).unwrap();
            prop_assert_eq!(&back, &values, "codec {}", enc.name());
        }
    }

    #[test]
    fn ts2diff_width_bounds_hold(values in sensor_series()) {
        let bytes = ts2diff::encode(&values, 1);
        let page = ts2diff::parse(&bytes).unwrap();
        let lo = page.delta_lower_bound();
        let hi = page.delta_upper_bound();
        for w in values.windows(2) {
            let d = w[1] - w[0];
            prop_assert!(d >= lo && d <= hi, "delta {d} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn delta_rle_bounds_hold(values in sensor_series()) {
        let bytes = delta_rle::encode(&values);
        let page = delta_rle::parse(&bytes).unwrap();
        for (d, r) in page.pairs() {
            prop_assert!(d >= page.delta_lower_bound());
            prop_assert!(d <= page.delta_upper_bound());
            prop_assert!(r <= page.run_upper_bound());
        }
    }

    #[test]
    fn rle_run_bound_holds(values in proptest::collection::vec(-5i64..5, 0..400)) {
        let bytes = rle::encode(&values);
        let page = rle::parse(&bytes).unwrap();
        for (run, _) in page.runs() {
            prop_assert!(run <= page.run_upper_bound());
        }
    }

    #[test]
    fn float_codecs_roundtrip(raw in proptest::collection::vec(any::<f64>(), 0..150)) {
        for (name, enc, dec) in [
            ("gorilla", gorilla::encode_f64 as fn(&[f64]) -> Vec<u8>, gorilla::decode_f64 as fn(&[u8]) -> etsqp_encoding::Result<Vec<f64>>),
            ("chimp", chimp::encode, chimp::decode),
            ("elf", elf::encode, elf::decode),
        ] {
            let bytes = enc(&raw);
            let back = dec(&bytes).unwrap();
            prop_assert_eq!(back.len(), raw.len(), "{}", name);
            for (a, b) in back.iter().zip(&raw) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{}", name);
            }
        }
        // The integer entry points over the ordered keys: the same bytes,
        // and the keys back.
        let keys: Vec<i64> = raw.iter().map(|&f| f64_to_ordered_i64(f)).collect();
        for enc in [Encoding::GorillaFloat, Encoding::Chimp, Encoding::Elf] {
            let bytes = enc.encode_i64(&keys);
            prop_assert_eq!(&bytes, &enc.encode_f64(&raw), "{}", enc.name());
            prop_assert_eq!(enc.decode_i64(&bytes).unwrap(), keys.clone(), "{}", enc.name());
        }
    }

    #[test]
    fn decoders_never_panic_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..120)) {
        // Corrupt input must yield Err, never panic or OOM.
        let _ = ts2diff::decode(&bytes);
        let _ = delta_rle::decode(&bytes);
        let _ = rle::decode(&bytes);
        let _ = gorilla::decode_i64(&bytes);
        let _ = chimp::decode(&bytes);
        let _ = elf::decode(&bytes);
    }
}
