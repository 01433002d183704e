//! Dual-representation message payloads for encode-once forwarding.
//!
//! A [`Payload`] carries an event (or arbitrary XML body) in whichever
//! representations have been materialised so far:
//!
//! * an XML element tree behind an [`Arc`] — the v1 text wire's view,
//! * frozen v2 binary bytes ([`FrozenBytes`]) — the encode-once buffer.
//!
//! At least one representation is always present. Cloning a payload is
//! always cheap (two refcount bumps), which is what lets
//! `GdsNode::flood` hand the *same* serialised bytes to every
//! child/parent edge instead of rebuilding and re-serialising the tree
//! per hop. The missing representation is produced on demand:
//! [`Payload::freeze`] fills in the binary bytes once, and
//! [`Payload::to_xml_element`] thaws them when a v1 peer needs text.
//! [`Payload::decode_event`] is the lazy-decode exit: on the binary
//! fast path it deserialises the native event codec directly, never
//! touching an XML tree.

use crate::binary::{
    payload_bytes_from_xml, payload_event_from_bytes, payload_xml_from_bytes, varint_len,
    FrozenBytes,
};
use crate::codec::event_from_xml;
use crate::xml::{WireError, XmlElement};
use gsa_types::Event;
use std::fmt;
use std::sync::Arc;

/// A message payload holding an XML tree, frozen binary bytes, or both.
///
/// # Examples
///
/// ```
/// use gsa_wire::{Payload, XmlElement};
///
/// let mut payload = Payload::from(XmlElement::new("note").with_text("hi"));
/// payload.freeze();
/// let cheap_copy = payload.clone(); // refcount bump, no re-encode
/// assert_eq!(cheap_copy.to_xml_element().name(), "note");
/// ```
#[derive(Clone)]
pub struct Payload {
    xml: Option<Arc<XmlElement>>,
    bin: Option<FrozenBytes>,
}

impl Payload {
    /// Wraps frozen binary bytes received off a v2 edge. The XML tree
    /// is only reconstructed if a v1 peer or a text encode asks for it.
    pub fn from_frozen(bin: FrozenBytes) -> Self {
        Payload {
            xml: None,
            bin: Some(bin),
        }
    }

    /// Ensures the binary representation exists, encoding it from the
    /// XML tree exactly once. Subsequent clones share the bytes.
    pub fn freeze(&mut self) {
        if self.bin.is_none() {
            let xml = self.xml.as_ref().expect("payload has a representation");
            self.bin = Some(FrozenBytes::new(payload_bytes_from_xml(xml)));
        }
    }

    /// The frozen binary bytes, when already materialised.
    pub fn frozen(&self) -> Option<&FrozenBytes> {
        self.bin.as_ref()
    }

    /// Returns `true` once [`freeze`](Self::freeze) has run (or the
    /// payload arrived as binary).
    pub fn is_frozen(&self) -> bool {
        self.bin.is_some()
    }

    /// The v2 encoded size of this payload including its varint length
    /// prefix. O(1) when frozen — the flood hot path never re-encodes
    /// just to measure.
    pub fn binary_size(&self) -> usize {
        let body = match &self.bin {
            Some(bin) => bin.len(),
            None => {
                let xml = self.xml.as_ref().expect("payload has a representation");
                payload_bytes_from_xml(xml).len()
            }
        };
        varint_len(body as u64) + body
    }

    /// Appends the payload as varint length + bytes (the v2 encoding).
    pub fn write_binary(&self, buf: &mut Vec<u8>) {
        match &self.bin {
            Some(bin) => {
                crate::binary::write_varint(buf, bin.len() as u64);
                buf.extend_from_slice(bin);
            }
            None => {
                let xml = self.xml.as_ref().expect("payload has a representation");
                let bytes = payload_bytes_from_xml(xml);
                crate::binary::write_varint(buf, bytes.len() as u64);
                buf.extend_from_slice(&bytes);
            }
        }
    }

    /// The payload as an XML element, thawing frozen bytes if the tree
    /// was never materialised. Malformed bytes (which a conforming
    /// encoder never produces) decode to an `<invalid-payload/>`
    /// marker rather than panicking mid-flood.
    pub fn to_xml_element(&self) -> XmlElement {
        if let Some(xml) = &self.xml {
            return (**xml).clone();
        }
        let bin = self.bin.as_ref().expect("payload has a representation");
        payload_xml_from_bytes(bin).unwrap_or_else(|_| XmlElement::new("invalid-payload"))
    }

    /// The length of the payload's v1 XML text, equal to
    /// `to_xml_element().wire_size()` without cloning the tree. Only a
    /// frozen-only payload (received off a v2 edge) is thawed to
    /// measure it.
    pub fn xml_wire_size(&self) -> usize {
        match &self.xml {
            Some(xml) => xml.wire_size(),
            None => self.to_xml_element().wire_size(),
        }
    }

    /// Decodes the payload as an alerting event. On frozen payloads
    /// this is the lazy-decode fast path: the native binary codec runs
    /// directly and no XML tree is built.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] when the payload is not a well-formed
    /// event.
    pub fn decode_event(&self) -> Result<Event, WireError> {
        if let Some(bin) = &self.bin {
            return payload_event_from_bytes(bin);
        }
        let xml = self.xml.as_ref().expect("payload has a representation");
        event_from_xml(xml)
    }

    /// Opens a zero-materialisation attribute probe over the frozen
    /// binary encoding. Returns `None` when no binary representation is
    /// materialised, when the payload took the generic XML fallback
    /// encoding, or when the event header is malformed — in every such
    /// case the caller falls back to [`decode_event`](Self::decode_event),
    /// which reports (or recovers from) the problem exactly as it did
    /// before probes existed.
    pub fn probe_event(&self) -> Option<crate::probe::EventProbe<'_>> {
        let bin = self.bin.as_ref()?;
        crate::probe::EventProbe::from_payload(bin).ok().flatten()
    }
}

impl From<XmlElement> for Payload {
    fn from(el: XmlElement) -> Self {
        Payload {
            xml: Some(Arc::new(el)),
            bin: None,
        }
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        // Fast path: identical frozen bytes are certainly equal.
        if let (Some(a), Some(b)) = (&self.bin, &other.bin) {
            if a == b {
                return true;
            }
        }
        self.to_xml_element() == other.to_xml_element()
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.xml, &self.bin) {
            (Some(xml), _) => write!(f, "Payload({})", xml.name()),
            (None, Some(bin)) => write!(f, "Payload(frozen, {} bytes)", bin.len()),
            (None, None) => unreachable!("payload has a representation"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::event_to_xml;
    use gsa_types::{CollectionId, EventId, EventKind, SimTime};

    fn sample_event() -> Event {
        Event::new(
            EventId::new("Hamilton", 7),
            CollectionId::new("Hamilton", "D"),
            EventKind::CollectionRebuilt,
            SimTime::from_millis(99),
        )
    }

    #[test]
    fn freeze_is_idempotent_and_preserves_the_element() {
        let el = event_to_xml(&sample_event());
        let mut p = Payload::from(el.clone());
        assert!(!p.is_frozen());
        p.freeze();
        assert!(p.is_frozen());
        let bytes = p.frozen().unwrap().clone();
        p.freeze();
        assert_eq!(p.frozen().unwrap(), &bytes, "second freeze reuses bytes");
        assert_eq!(p.to_xml_element(), el);
    }

    #[test]
    fn frozen_payload_thaws_and_decodes_lazily() {
        let event = sample_event();
        let mut origin = Payload::from(event_to_xml(&event));
        origin.freeze();
        let received = Payload::from_frozen(origin.frozen().unwrap().clone());
        assert_eq!(received.decode_event().unwrap(), event);
        assert_eq!(received.to_xml_element(), event_to_xml(&event));
    }

    #[test]
    fn equality_spans_representations() {
        let el = event_to_xml(&sample_event());
        let plain = Payload::from(el.clone());
        let mut frozen = Payload::from(el);
        frozen.freeze();
        let binary_only = Payload::from_frozen(frozen.frozen().unwrap().clone());
        assert_eq!(plain, frozen);
        assert_eq!(plain, binary_only);
        assert_eq!(frozen, binary_only);
        let other = Payload::from(XmlElement::new("other"));
        assert_ne!(plain, other);
    }

    #[test]
    fn binary_size_matches_written_bytes() {
        for payload in [
            Payload::from(event_to_xml(&sample_event())),
            Payload::from(XmlElement::new("blob").with_text("free-form")),
        ] {
            let mut frozen = payload.clone();
            frozen.freeze();
            let mut buf = Vec::new();
            frozen.write_binary(&mut buf);
            assert_eq!(buf.len(), frozen.binary_size());
            // Unfrozen encode agrees with the frozen one.
            let mut buf2 = Vec::new();
            payload.write_binary(&mut buf2);
            assert_eq!(buf, buf2);
            assert_eq!(payload.binary_size(), buf2.len());
        }
    }

    #[test]
    fn non_event_payloads_fail_event_decode() {
        let mut p = Payload::from(XmlElement::new("announcement"));
        assert!(p.decode_event().is_err());
        p.freeze();
        assert!(p.decode_event().is_err());
    }

    #[test]
    fn debug_is_compact() {
        let mut p = Payload::from(XmlElement::new("event"));
        assert_eq!(format!("{p:?}"), "Payload(event)");
        p.freeze();
        let bin_only = Payload::from_frozen(p.frozen().unwrap().clone());
        assert!(format!("{bin_only:?}").starts_with("Payload(frozen"));
    }
}
