//! # dns-wire
//!
//! DNS data model and codecs for the `httpsrr` workspace: domain names,
//! resource records (including RFC 9460 SVCB/HTTPS service bindings and
//! the DNSSEC record types), full messages with EDNS(0), RFC 1035 name
//! compression, and zone-file presentation format.
//!
//! This crate is `std`-only, allocation-friendly, and panic-free on
//! untrusted input: all decoding returns [`WireError`] rather than
//! panicking, and malformed structures seen in the wild (truncated RDATA,
//! compression loops, out-of-order SvcParams, bad hint lengths) map to
//! specific variants.
//!
//! ```
//! use dns_wire::{DnsName, Message, RecordType};
//!
//! let query = Message::query(0x2b, DnsName::parse("example.com").unwrap(), RecordType::Https);
//! let bytes = query.encode();
//! let back = Message::decode(&bytes).unwrap();
//! assert_eq!(back.question().unwrap().qtype, RecordType::Https);
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod message;
pub mod name;
pub mod presentation;
pub mod record;
pub mod svcb;
pub mod view;
pub mod wire;

pub use error::{ParseError, WireError};
pub use message::{Edns, Flags, Message, Opcode, Question, Rcode};
pub use name::DnsName;
pub use record::{
    DnsClass, DnskeyRdata, DsRdata, RData, Record, RecordType, RrsigRdata, SoaRdata, SrvRdata,
};
pub use svcb::{SvcParam, SvcbRdata};
pub use view::{MessageView, NameView, QuestionView, RecordView};

#[cfg(test)]
mod proptests {
    use crate::message::{Flags, Message, Opcode, Rcode};
    use crate::name::DnsName;
    use crate::record::{DnsClass, RData, Record, RecordType, SoaRdata};
    use crate::svcb::{SvcParam, SvcbRdata};
    use proptest::prelude::*;
    use std::net::{Ipv4Addr, Ipv6Addr};

    fn arb_label() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(
            prop_oneof![Just(b'a'), Just(b'z'), Just(b'0'), Just(b'-'), Just(b'X')],
            1..8,
        )
    }

    fn arb_name() -> impl Strategy<Value = DnsName> {
        proptest::collection::vec(arb_label(), 0..5).prop_map(DnsName::from_labels)
    }

    fn arb_svcparam() -> impl Strategy<Value = SvcParam> {
        prop_oneof![
            proptest::collection::vec(any::<u8>().prop_map(|b| vec![b % 26 + b'a']), 1..4)
                .prop_map(SvcParam::Alpn),
            Just(SvcParam::NoDefaultAlpn),
            any::<u16>().prop_map(SvcParam::Port),
            proptest::collection::vec(any::<u32>().prop_map(Ipv4Addr::from), 1..4)
                .prop_map(SvcParam::Ipv4Hint),
            proptest::collection::vec(any::<u128>().prop_map(Ipv6Addr::from), 1..3)
                .prop_map(SvcParam::Ipv6Hint),
            proptest::collection::vec(any::<u8>(), 1..64).prop_map(SvcParam::Ech),
            (7u16..1000, proptest::collection::vec(any::<u8>(), 0..16))
                .prop_map(|(key, value)| SvcParam::Unknown { key, value }),
        ]
    }

    fn arb_svcb() -> impl Strategy<Value = SvcbRdata> {
        (any::<u16>(), arb_name(), proptest::collection::vec(arb_svcparam(), 0..5)).prop_map(
            |(priority, target, mut params)| {
                // One param per key: encoding sorts by key and decoding
                // requires strictly increasing keys.
                params.sort_by_key(|p| p.key());
                params.dedup_by_key(|p| p.key());
                SvcbRdata { priority, target, params }
            },
        )
    }

    fn arb_rdata() -> impl Strategy<Value = RData> {
        prop_oneof![
            any::<u32>().prop_map(|v| RData::A(Ipv4Addr::from(v))),
            any::<u128>().prop_map(|v| RData::Aaaa(Ipv6Addr::from(v))),
            arb_name().prop_map(RData::Cname),
            arb_name().prop_map(RData::Ns),
            (any::<u16>(), arb_name()).prop_map(|(p, h)| RData::Mx(p, h)),
            // Presentation format is lossy for non-printable TXT bytes,
            // so generate printable, space-free strings here.
            proptest::collection::vec(
                proptest::collection::vec((b'a'..=b'z').prop_map(|b| b), 0..32),
                1..3,
            )
            .prop_map(RData::Txt),
            (
                arb_name(),
                arb_name(),
                any::<u32>(),
                any::<u32>(),
                any::<u32>(),
                any::<u32>(),
                any::<u32>()
            )
                .prop_map(|(mname, rname, serial, refresh, retry, expire, minimum)| {
                    RData::Soa(SoaRdata { mname, rname, serial, refresh, retry, expire, minimum })
                }),
            arb_svcb().prop_map(RData::Https),
            arb_svcb().prop_map(RData::Svcb),
        ]
    }

    fn arb_record() -> impl Strategy<Value = Record> {
        (arb_name(), any::<u32>(), arb_rdata()).prop_map(|(name, ttl, rdata)| Record {
            name,
            rtype: rdata.record_type(),
            class: DnsClass::In,
            ttl,
            rdata,
        })
    }

    proptest! {
        #[test]
        fn svcb_rdata_round_trip(rd in arb_svcb()) {
            let mut w = crate::wire::WireWriter::new();
            rd.encode(&mut w);
            let back = SvcbRdata::decode(w.as_bytes()).unwrap();
            prop_assert_eq!(back, rd);
        }

        #[test]
        fn svcb_presentation_round_trip(rd in arb_svcb()) {
            let text = rd.to_presentation();
            let tokens: Vec<&str> = text.split_whitespace().collect();
            let parsed = SvcbRdata::parse_presentation(&tokens).unwrap();
            prop_assert_eq!(parsed, rd);
        }

        #[test]
        fn message_round_trip(
            id in any::<u16>(),
            qname in arb_name(),
            answers in proptest::collection::vec(arb_record(), 0..6),
            authorities in proptest::collection::vec(arb_record(), 0..3),
            ad in any::<bool>(),
            rcode in (0u8..6).prop_map(Rcode::from_code),
        ) {
            let msg = Message {
                id,
                opcode: Opcode::Query,
                flags: Flags { qr: true, ra: true, ad, ..Default::default() },
                rcode,
                questions: vec![crate::message::Question::new(qname, RecordType::Https)],
                answers,
                authorities,
                additionals: Vec::new(),
                edns: Some(crate::message::Edns::dnssec()),
            };
            let back = Message::decode(&msg.encode()).unwrap();
            prop_assert_eq!(back, msg);
        }

        #[test]
        fn decode_arbitrary_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = Message::decode(&bytes);
            let _ = SvcbRdata::decode(&bytes);
            let _ = DnsName::decode_at(&bytes, 0);
        }

        #[test]
        fn decode_encode_byte_identity(
            id in any::<u16>(),
            qname in arb_name(),
            answers in proptest::collection::vec(arb_record(), 0..6),
            authorities in proptest::collection::vec(arb_record(), 0..3),
            additionals in proptest::collection::vec(arb_record(), 0..3),
            rcode in (0u8..6).prop_map(Rcode::from_code),
            with_edns in any::<bool>(),
        ) {
            let msg = Message {
                id,
                opcode: Opcode::Query,
                flags: Flags { qr: true, ra: true, ..Default::default() },
                rcode,
                questions: vec![crate::message::Question::new(qname, RecordType::Https)],
                answers,
                authorities,
                additionals,
                edns: with_edns.then(crate::message::Edns::dnssec),
            };
            let wire = msg.encode();
            // decode ∘ encode is the identity on messages, and re-encoding
            // the decoded message reproduces the exact bytes.
            let back = Message::decode(&wire).unwrap();
            prop_assert_eq!(back.encode(), wire);
            prop_assert_eq!(back, msg);
        }

        #[test]
        fn message_view_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            if let Ok(view) = crate::view::MessageView::parse(&bytes) {
                for q in view.questions() {
                    let _ = q.name().labels().count();
                    let _ = q.to_owned();
                }
                for r in view.answers().chain(view.authorities()).chain(view.additionals()) {
                    let _ = r.name().labels().count();
                    let _ = r.rdata();
                }
                let _ = view.to_message();
            }
        }

        #[test]
        fn name_parse_display_round_trip(name in arb_name()) {
            let text = name.to_string();
            let back = DnsName::parse(&text).unwrap();
            prop_assert_eq!(back, name);
        }

        #[test]
        fn record_presentation_round_trip(rec in arb_record()) {
            let line = rec.to_presentation();
            let back = crate::presentation::parse_record_line(&line, &DnsName::root(), rec.ttl)
                .unwrap().unwrap();
            prop_assert_eq!(back, rec);
        }
    }
}
