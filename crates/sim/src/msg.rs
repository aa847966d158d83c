//! Type-erased message payloads.
//!
//! All interprocess communication in the simulated GUARDIAN world is by
//! message. Every layer (storage, audit, TMF, application) defines its own
//! message enums; the kernel moves them around as type-erased [`Payload`]s
//! and the receiver downcasts to the type it expects — the moral equivalent
//! of GUARDIAN's untyped message buffers, but checked at runtime.
//!
//! A payload is boxed ([`Payload::new`]: one block per message) or shared
//! ([`Payload::shared`]: one block for every copy of a broadcast, DESIGN.md
//! §D19(e)). Receivers read both alike; only a by-value downcast tells them
//! apart, and it hands a shared value over from its last copy alone.

use std::any::Any;
use std::sync::Arc;

/// What a payload holds: any `Send` value, which names its own type. The
/// name is read through the vtable, so a payload is one fat pointer and
/// its tag, not a pointer and a name.
trait Message: Any + Send {
    fn type_name(&self) -> &'static str;
}

impl<T: Any + Send> Message for T {
    fn type_name(&self) -> &'static str {
        std::any::type_name::<T>()
    }
}

/// A value that several payloads may hold at once.
trait SharedMessage: Message + Sync {
    /// Move the value into `slot`, an `Option<Self>`, if this is its last
    /// copy.
    fn unwrap_into(self: Arc<Self>, slot: &mut dyn Any);
}

impl<T: Message + Sync> SharedMessage for T {
    fn unwrap_into(self: Arc<Self>, slot: &mut dyn Any) {
        if let Some(slot) = slot.downcast_mut::<Option<T>>() {
            *slot = Arc::into_inner(self);
        }
    }
}

enum Repr {
    Boxed(Box<dyn Message>),
    Shared(Arc<dyn SharedMessage>),
}

/// A type-erased, owned message payload.
pub struct Payload {
    repr: Repr,
}

// Every message in flight is a payload in the kernel's queue: two words and
// a tag, never more than the box and name it used to be.
const _: () = assert!(std::mem::size_of::<Payload>() <= 32);

impl Payload {
    /// Wrap any `Send + 'static` value as a payload.
    pub fn new<T: Any + Send>(value: T) -> Payload {
        Payload {
            repr: Repr::Boxed(Box::new(value)),
        }
    }

    /// Another copy of a value sent to many receivers: a reference-count
    /// bump, not a block. Receivers read it with [`Payload::downcast_ref`];
    /// a by-value [`Payload::downcast`] succeeds only on the last copy.
    pub fn shared<T: Any + Send + Sync>(value: &Arc<T>) -> Payload {
        let value: Arc<dyn SharedMessage> = value.clone();
        Payload {
            repr: Repr::Shared(value),
        }
    }

    fn message(&self) -> &dyn Message {
        match &self.repr {
            Repr::Boxed(b) => &**b,
            Repr::Shared(s) => &**s,
        }
    }

    /// The Rust type name of the wrapped value, for tracing and error
    /// messages. A shared payload names the value, not its `Arc`.
    pub fn type_name(&self) -> &'static str {
        self.message().type_name()
    }

    /// True if the payload holds a value of type `T`.
    pub fn is<T: Any>(&self) -> bool {
        let any: &dyn Any = self.message();
        any.is::<T>()
    }

    /// Recover the wrapped value, or give the payload back on a type
    /// mismatch — or when it is a shared value with other copies alive.
    pub fn downcast<T: Any>(self) -> Result<T, Payload> {
        if !self.is::<T>() {
            return Err(self);
        }
        match self.repr {
            Repr::Boxed(b) => {
                let any: Box<dyn Any> = b;
                Ok(*any.downcast::<T>().expect("the type was just checked"))
            }
            Repr::Shared(s) => {
                if Arc::strong_count(&s) > 1 {
                    return Err(Payload {
                        repr: Repr::Shared(s),
                    });
                }
                let mut slot: Option<T> = None;
                SharedMessage::unwrap_into(s, &mut slot);
                Ok(slot.expect("the only copy, of the type just checked"))
            }
        }
    }

    /// Borrow the wrapped value if it has type `T`.
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        let any: &dyn Any = self.message();
        any.downcast_ref::<T>()
    }

    /// Recover the wrapped value, panicking with a descriptive message on a
    /// type mismatch. Use in process handlers where receiving an unexpected
    /// type is a protocol bug.
    #[track_caller]
    pub fn expect<T: Any>(self) -> T {
        let got = self.type_name();
        match self.downcast::<T>() {
            Ok(v) => v,
            Err(p) if p.is::<T>() => panic!("payload {got} is shared: read it by reference"),
            Err(_) => panic!(
                "payload type mismatch: expected {}, got {}",
                std::any::type_name::<T>(),
                got
            ),
        }
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Payload<{}>", self.type_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Ping(u32);

    #[test]
    fn roundtrip() {
        let p = Payload::new(Ping(7));
        assert!(p.is::<Ping>());
        assert!(!p.is::<String>());
        assert_eq!(p.downcast::<Ping>().unwrap(), Ping(7));
    }

    #[test]
    fn mismatch_returns_payload() {
        let p = Payload::new(Ping(1));
        let p = p.downcast::<String>().unwrap_err();
        // still intact after the failed downcast
        assert_eq!(p.downcast::<Ping>().unwrap(), Ping(1));
    }

    #[test]
    fn downcast_ref_and_name() {
        let p = Payload::new(42u64);
        assert_eq!(p.downcast_ref::<u64>(), Some(&42));
        assert!(p.type_name().contains("u64"));
    }

    #[test]
    #[should_panic(expected = "payload type mismatch")]
    fn expect_panics_with_context() {
        Payload::new(Ping(1)).expect::<String>();
    }

    #[test]
    fn a_payload_is_at_most_four_words() {
        assert!(std::mem::size_of::<Payload>() <= 32);
        assert_eq!(
            std::mem::size_of::<Payload>(),
            std::mem::size_of::<Option<Payload>>()
        );
    }

    /// A shared payload reads as the boxed payload of the same value does:
    /// the same type test, the same borrow, the same name and debug text.
    #[test]
    fn shared_reads_as_boxed() {
        let boxed = Payload::new(Ping(3));
        let value = Arc::new(Ping(3));
        let shared = Payload::shared(&value);
        assert!(shared.is::<Ping>());
        assert!(!shared.is::<Arc<Ping>>());
        assert!(!shared.is::<u32>());
        assert_eq!(shared.downcast_ref::<Ping>(), boxed.downcast_ref::<Ping>());
        assert_eq!(shared.downcast_ref::<u32>(), None);
        assert_eq!(shared.type_name(), boxed.type_name());
        assert_eq!(shared.type_name(), std::any::type_name::<Ping>());
        assert_eq!(format!("{shared:?}"), format!("{boxed:?}"));
    }

    /// Only the last copy hands its value over; the others, and a wrong
    /// type, give the payload back intact.
    #[test]
    fn shared_downcast_needs_the_last_copy() {
        let value = Arc::new(Ping(5));
        let (a, b) = (Payload::shared(&value), Payload::shared(&value));
        drop(value);
        let a = a.downcast::<Ping>().expect_err("b is alive");
        let b = b.downcast::<String>().expect_err("wrong type");
        drop(b);
        assert_eq!(a.downcast::<Ping>().unwrap(), Ping(5));
    }

    #[test]
    #[should_panic(expected = "is shared")]
    fn expect_refuses_a_copy_still_shared() {
        let value = Arc::new(Ping(1));
        Payload::shared(&value).expect::<Ping>();
    }
}
