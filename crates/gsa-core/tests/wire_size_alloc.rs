//! Allocation pin for the simulator's v1 byte accounting: measuring a
//! message walks the XML tree in place, so no payload is cloned into an
//! envelope and no text is serialised just to take its length.
//!
//! Same counting-allocator harness as gsa-simnet's `step_zero_alloc`:
//! a wrapper around the system allocator counts allocations only inside
//! the measured window.

use gsa_core::SysMessage;
use gsa_gds::GdsMessage;
use gsa_types::{
    keys, CollectionId, DocSummary, Event, EventId, EventKind, MessageId, MetadataRecord, SimTime,
};
use gsa_wire::codec::event_to_xml;
use gsa_wire::{Payload, Reliable, XmlElement};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Serializes the tests: the tracking flag is process-global, so two
/// measured windows must never overlap.
static WINDOW: Mutex<()> = Mutex::new(());

struct CountingAlloc;

static TRACKING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` inside a measured window and returns its result together
/// with the number of allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.store(0, Ordering::SeqCst);
    TRACKING.store(true, Ordering::SeqCst);
    let out = std::hint::black_box(f());
    TRACKING.store(false, Ordering::SeqCst);
    (out, ALLOCS.load(Ordering::SeqCst))
}

/// A rebuild event carrying `docs` documents, with text that needs
/// escaping and multibyte characters.
fn event_with_docs(docs: usize) -> Event {
    Event::new(
        EventId::new("Hamilton", 7),
        CollectionId::new("Hamilton", "D"),
        EventKind::DocumentsAdded,
        SimTime::from_millis(40),
    )
    .with_docs(
        (0..docs)
            .map(|i| {
                let md: MetadataRecord = [
                    (keys::TITLE, "Ngā <Pūrākau> & \"Tales\""),
                    ("dc.Creator", "Hinze & Buchanan"),
                ]
                .into_iter()
                .collect();
                DocSummary::new(format!("doc-{i}"))
                    .with_metadata(md)
                    .with_excerpt("a < b && c > d — ünïcödé")
            })
            .collect(),
    )
}

fn broadcast(docs: usize) -> GdsMessage {
    GdsMessage::Broadcast {
        id: MessageId::from_raw(1),
        origin: "Hamilton".into(),
        payload: event_to_xml(&event_with_docs(docs)).into(),
    }
}

#[test]
fn xml_walk_and_payload_size_allocate_nothing() {
    let _window = WINDOW.lock().unwrap();
    let tree: XmlElement = event_to_xml(&event_with_docs(50));
    let (size, allocs) = counted(|| tree.wire_size());
    assert_eq!(size, tree.to_xml_string().len());
    assert_eq!(allocs, 0, "XmlElement::wire_size allocated {allocs} times");

    let mut payload = Payload::from(tree.clone());
    let (size, allocs) = counted(|| payload.xml_wire_size());
    assert_eq!(size, tree.to_xml_string().len());
    assert_eq!(allocs, 0, "Payload::xml_wire_size allocated {allocs} times");

    // A frozen payload that still holds its tree measures the tree.
    payload.freeze();
    let (_, allocs) = counted(|| payload.xml_wire_size());
    assert_eq!(
        allocs, 0,
        "frozen Payload::xml_wire_size allocated {allocs} times"
    );
}

#[test]
fn v1_broadcast_accounting_does_not_scale_with_the_payload() {
    let _window = WINDOW.lock().unwrap();
    let small = SysMessage::Gds(broadcast(1));
    let large = SysMessage::Gds(broadcast(50));
    let (small_size, small_allocs) = counted(|| small.wire_size());
    let (large_size, large_allocs) = counted(|| large.wire_size());
    assert!(large_size > 10 * small_size, "{small_size} vs {large_size}");
    assert_eq!(
        small_allocs, large_allocs,
        "a 50-doc broadcast cost {large_allocs} allocations to measure, a 1-doc one {small_allocs}"
    );

    // The reliable envelope measures its inner message the same way.
    let rel = |docs| {
        SysMessage::RelGds(Reliable::Data {
            seq: 3,
            payload: broadcast(docs),
        })
    };
    let (small, large) = (rel(1), rel(50));
    let (_, small_allocs) = counted(|| small.wire_size());
    let (_, large_allocs) = counted(|| large.wire_size());
    assert_eq!(small_allocs, large_allocs);
}

#[test]
fn building_the_text_allocates_with_the_payload() {
    // Negative control: encoding the message to take its length — what
    // byte accounting must not do — allocates more for the bigger
    // payload, so the harness above can see a clone when there is one.
    let _window = WINDOW.lock().unwrap();
    let (small, large) = (broadcast(1), broadcast(50));
    let (_, small_allocs) = counted(|| small.to_xml().to_xml_string().len());
    let (_, large_allocs) = counted(|| large.to_xml().to_xml_string().len());
    assert!(
        large_allocs > small_allocs + 50,
        "encoding allocated {small_allocs} (1 doc) vs {large_allocs} (50 docs)"
    );
}
