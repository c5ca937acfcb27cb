//! Property tests for the storage layer: arbitrary series must survive
//! page encode/decode and the full TsFile round-trip, for both integer
//! and float columns, under every page size.

use etsqp_encoding::Encoding;
use etsqp_storage::page::Page;
use etsqp_storage::store::SeriesStore;
use etsqp_storage::tsfile;
use proptest::prelude::*;

fn points() -> impl Strategy<Value = Vec<(i64, i64)>> {
    proptest::collection::vec((1i64..10_000, any::<i32>()), 1..400).prop_map(|steps| {
        let mut t = 0i64;
        steps
            .into_iter()
            .map(|(dt, v)| {
                t += dt;
                (t, v as i64)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn store_roundtrips_arbitrary_series(
        pts in points(),
        page_points in prop_oneof![Just(1usize), Just(3), Just(64), Just(1024)],
        enc_idx in 0usize..4,
    ) {
        let enc = [Encoding::Ts2Diff, Encoding::DeltaRle, Encoding::Sprintz, Encoding::Gorilla][enc_idx];
        let store = SeriesStore::new(page_points);
        store.create_series("s", Encoding::Ts2Diff, enc);
        for &(t, v) in &pts {
            store.append("s", t, v).unwrap();
        }
        store.flush("s").unwrap();
        prop_assert_eq!(store.point_count("s").unwrap(), pts.len() as u64);
        let mut got = Vec::new();
        for page in store.peek_pages("s").unwrap() {
            let (ts, vals) = page.decode().unwrap();
            got.extend(ts.into_iter().zip(vals));
        }
        prop_assert_eq!(got, pts);
    }

    #[test]
    fn tsfile_roundtrips_mixed_series(
        pts in points(),
        floats in proptest::collection::vec(any::<f32>(), 1..200),
    ) {
        let store = SeriesStore::new(128);
        store.create_series("ints", Encoding::Ts2Diff, Encoding::Ts2Diff);
        for &(t, v) in &pts {
            store.append("ints", t, v).unwrap();
        }
        store.create_series_f64("floats", Encoding::Ts2Diff, Encoding::Chimp);
        for (i, &f) in floats.iter().enumerate() {
            store.append_f64("floats", i as i64, f as f64).unwrap();
        }
        store.flush("ints").unwrap();
        store.flush("floats").unwrap();

        let dir = std::env::temp_dir().join("etsqp_persistence_prop");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("prop_{}.etsqp", std::process::id()));
        tsfile::write(&store, &path).unwrap();
        let back = tsfile::read(&path).unwrap();
        std::fs::remove_file(&path).ok();

        // Integer column identical.
        let mut got = Vec::new();
        for page in back.peek_pages("ints").unwrap() {
            let (ts, vals) = page.decode().unwrap();
            got.extend(ts.into_iter().zip(vals));
        }
        prop_assert_eq!(got, pts);
        // Float column bit-identical.
        let mut fgot: Vec<f64> = Vec::new();
        for page in back.peek_pages("floats").unwrap() {
            let (_, keys) = page.decode().unwrap();
            fgot.extend(keys.into_iter().map(etsqp_encoding::ordered_i64_to_f64));
        }
        prop_assert_eq!(fgot.len(), floats.len());
        for (a, &b) in fgot.iter().zip(&floats) {
            prop_assert_eq!(a.to_bits(), (b as f64).to_bits());
        }
    }

    #[test]
    fn page_images_roundtrip(pts in points()) {
        let (ts, vals): (Vec<i64>, Vec<i64>) = pts.into_iter().unzip();
        let page = Page::encode(&ts, &vals, Encoding::Ts2Diff, Encoding::Sprintz).unwrap();
        let image = page.to_bytes();
        let (back, used) = Page::from_bytes(&image).unwrap();
        prop_assert_eq!(used, image.len());
        prop_assert_eq!(back.decode().unwrap(), (ts, vals));
    }
}
