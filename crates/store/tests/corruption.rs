//! Loader robustness: a damaged packed index must always come back as a
//! typed `Err`, never a panic and never silently wrong data. The fuzz
//! walks every byte of a real image flipping bits, and every truncation
//! length; the only flips allowed to still validate are those the format
//! genuinely cannot see (inter-section alignment padding), and for those
//! the decoded content must be identical to the original.

use hcl_core::{HighwayCoverLabelling, LabelStorage, SparseNeighbors, SparseView};
use hcl_graph::{generate, VertexId};
use hcl_store::format::{SECTION_ENTRY_BYTES, SECTION_SPARSE_ADJ, SECTION_SPARSE_DEGREES};
use hcl_store::{pack, varint, IndexView, PackedOracle, StoreError};

fn packed_image() -> (Vec<u8>, HighwayCoverLabelling, SparseView) {
    let g = generate::barabasi_albert(60, 3, 17);
    let landmarks = hcl_graph::order::top_degree(&g, 5);
    let (hcl, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
    let sparse = SparseView::build(&g, hcl.highway());
    let image = pack(&hcl, &sparse).unwrap();
    (image, hcl, sparse)
}

/// Deep equality against the source index — the "silently wrong" check for
/// corruptions that land in bytes the format does not interpret.
fn content_identical(view: &IndexView, hcl: &HighwayCoverLabelling, sparse: &SparseView) -> bool {
    if view.num_vertices() != hcl.labels().num_vertices()
        || view.landmarks() != hcl.highway().landmarks()
    {
        return false;
    }
    (0..view.num_landmarks() as u32).all(|r| view.highway_row(r) == hcl.highway().row(r))
        && (0..view.num_vertices() as VertexId).all(|v| {
            view.label(v).collect::<Vec<_>>()
                == hcl
                    .labels()
                    .label(v)
                    .iter()
                    .map(|e| (e.landmark as u32, e.dist as u32))
                    .collect::<Vec<_>>()
                && view.sparse_neighbors(v) == sparse.graph().neighbors(v)
        })
}

#[test]
fn bit_flips_never_panic_and_never_corrupt_silently() {
    let (image, hcl, sparse) = packed_image();
    let mut accepted = 0usize;
    for at in 0..image.len() {
        for bit in [0u8, 3, 7] {
            let mut mutated = image.clone();
            mutated[at] ^= 1 << bit;
            match IndexView::from_bytes(&mutated) {
                Err(_) => {}
                Ok(view) => {
                    // Only padding flips may survive — prove the payload is
                    // untouched.
                    accepted += 1;
                    assert!(
                        content_identical(&view, &hcl, &sparse),
                        "flip at byte {at} bit {bit} validated but changed content"
                    );
                }
            }
        }
    }
    // Alignment padding between six sections is at most a few words; any
    // more acceptances would mean validation has a blind spot.
    assert!(accepted <= 3 * 48, "{accepted} flips accepted — validation too loose");
}

#[test]
fn truncations_are_clean_errors() {
    let (image, _, _) = packed_image();
    assert!(IndexView::from_bytes(&image).is_ok());
    for len in 0..image.len() {
        match IndexView::from_bytes(&image[..len]) {
            Err(_) => {}
            Ok(_) => panic!("truncation to {len} of {} bytes validated", image.len()),
        }
    }
}

#[test]
fn header_level_damage_reports_typed_errors() {
    let (image, _, _) = packed_image();

    let mut bad_magic = image.clone();
    bad_magic[0] = b'X';
    assert!(matches!(IndexView::from_bytes(&bad_magic), Err(StoreError::BadMagic)));

    let mut future = image.clone();
    future[8..12].copy_from_slice(&99u32.to_le_bytes());
    assert!(matches!(
        IndexView::from_bytes(&future),
        Err(StoreError::UnsupportedVersion { found: 99 })
    ));

    assert!(matches!(IndexView::from_bytes(&image[..16]), Err(StoreError::Truncated { .. })));
    assert!(matches!(IndexView::from_bytes(&[]), Err(StoreError::Truncated { .. })));

    // A checksum flip is reported as corruption, not i/o.
    let mut bad_payload = image.clone();
    let last = bad_payload.len() - 1;
    bad_payload[last] ^= 0xff;
    assert!(matches!(IndexView::from_bytes(&bad_payload), Err(StoreError::Corrupt(_))));
}

#[test]
fn damaged_files_on_disk_fail_to_open() {
    let dir = std::env::temp_dir().join("hcl_store_corruption_test");
    std::fs::create_dir_all(&dir).unwrap();
    let (image, _, _) = packed_image();

    // Truncated on disk.
    let truncated = dir.join("truncated.hclx");
    std::fs::write(&truncated, &image[..image.len() / 2]).unwrap();
    assert!(PackedOracle::open(&truncated).is_err());

    // Shorter than a header.
    let stub = dir.join("stub.hclx");
    std::fs::write(&stub, b"HCLSTOR1").unwrap();
    assert!(matches!(PackedOracle::open(&stub), Err(StoreError::Truncated { .. })));

    // Empty file (mmap would reject it; the loader must error first).
    let empty = dir.join("empty.hclx");
    std::fs::write(&empty, b"").unwrap();
    assert!(PackedOracle::open(&empty).is_err());

    // Missing file.
    assert!(matches!(PackedOracle::open(dir.join("nope.hclx")), Err(StoreError::Io(_))));

    // Not an index at all.
    let noise = dir.join("noise.hclx");
    std::fs::write(&noise, vec![0xabu8; 4096]).unwrap();
    assert!(matches!(PackedOracle::open(&noise), Err(StoreError::BadMagic)));

    std::fs::remove_dir_all(&dir).ok();
}

/// Rewrites section `kind`'s payload as `u32` words through `edit`, then
/// re-seals its checksum — damage only content validation can catch.
fn with_section(image: &[u8], kind: u32, edit: impl FnOnce(&mut Vec<u32>)) -> Vec<u8> {
    let mut image = image.to_vec();
    let at = (0..6)
        .map(|i| 40 + i * SECTION_ENTRY_BYTES)
        .find(|&e| u32::from_le_bytes(image[e..e + 4].try_into().unwrap()) == kind)
        .expect("section present");
    let field =
        |i: usize| u64::from_le_bytes(image[at + i..at + i + 8].try_into().unwrap()) as usize;
    let (offset, len) = (field(8), field(16));
    let mut words: Vec<u32> = image[offset..offset + len]
        .chunks_exact(4)
        .map(|w| u32::from_le_bytes(w.try_into().unwrap()))
        .collect();
    edit(&mut words);
    let payload: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    assert_eq!(payload.len(), len, "edits keep the section length");
    image[offset..offset + len].copy_from_slice(&payload);
    image[at + 24..at + 32].copy_from_slice(&varint::section_checksum(&payload).to_le_bytes());
    image
}

fn corrupt_because(image: &[u8], why: &str) {
    match IndexView::from_bytes(image) {
        Err(StoreError::Corrupt(msg)) => assert!(msg.contains(why), "{msg:?} lacks {why:?}"),
        other => panic!("expected corruption ({why}), got {other:?}"),
    }
}

#[test]
fn resealed_sparse_damage_is_caught_by_content_checks() {
    let (image, hcl, sparse) = packed_image();
    let n = hcl.labels().num_vertices() as u32;
    assert!(sparse.graph().degree(0) >= 2, "view vertex 0 is the top-degree row");

    // The degree table's total disagrees with section 6's length.
    let image_total = with_section(&image, SECTION_SPARSE_DEGREES, |d| *d.last_mut().unwrap() += 1);
    corrupt_because(&image_total, "sparse degree table totals");

    // A view row out of order: swap the first two entries of view row 0.
    let unsorted = with_section(&image, SECTION_SPARSE_ADJ, |a| a.swap(0, 1));
    corrupt_because(&unsorted, "not strictly sorted");

    // A view row holding an id >= n.
    let out_of_range = with_section(&image, SECTION_SPARSE_ADJ, |a| a[0] = n);
    corrupt_because(&out_of_range, "out of range");

    // A landmark with nonzero degree: move one unit of degree from the next
    // vertex with neighbours onto the landmark, keeping the table monotone
    // and its total unchanged.
    let landmark = hcl.highway().landmark(0) as usize;
    let donor = (landmark + 1..n as usize)
        .find(|&v| sparse.graph().degree(sparse.view_of(v as VertexId)) > 0)
        .expect("a vertex after the landmark has neighbours");
    let landmark_row = with_section(&image, SECTION_SPARSE_DEGREES, |d| {
        for p in &mut d[landmark + 1..=donor] {
            *p += 1;
        }
    });
    corrupt_because(&landmark_row, &format!("landmark {landmark} has sparse neighbours"));
}

#[test]
fn version_1_images_are_refused_with_a_repack_hint() {
    let (image, _, _) = packed_image();
    let mut v1 = image.clone();
    v1[8..12].copy_from_slice(&1u32.to_le_bytes());
    let err = IndexView::from_bytes(&v1).unwrap_err();
    assert!(matches!(err, StoreError::UnsupportedVersion { found: 1 }), "{err:?}");
    assert!(err.to_string().contains("hcl pack"), "{err}");
}
