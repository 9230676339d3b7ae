//! Error type for resource allocation.

use std::error::Error;
use std::fmt;

use crate::provision::DeviceRef;
use crate::topology::{RouteId, SiteId};

/// Why an allocation or provisioning request could not be satisfied.
///
/// All variants leave the [`crate::Provision`] unchanged: allocation is
/// validate-then-commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResourceError {
    /// The named array slot does not exist at the site.
    NoSuchArraySlot {
        /// Site the slot was requested at.
        site: SiteId,
        /// Requested slot index.
        slot: usize,
    },
    /// The named tape slot does not exist at the site.
    NoSuchTapeSlot {
        /// Site the slot was requested at.
        site: SiteId,
        /// Requested slot index.
        slot: usize,
    },
    /// The device cannot hold the requested capacity and bandwidth even
    /// fully populated.
    DeviceExhausted {
        /// The device that cannot hold the allocation.
        device: DeviceRef,
    },
    /// The route cannot carry the requested bandwidth even with the
    /// maximum number of links.
    RouteExhausted {
        /// The saturated route.
        route: RouteId,
    },
    /// No route exists between the two sites.
    NoRoute {
        /// One endpoint.
        a: SiteId,
        /// The other endpoint.
        b: SiteId,
    },
    /// The site has no free compute servers left.
    ComputeExhausted {
        /// The saturated site.
        site: SiteId,
    },
    /// Adding the requested extra units would exceed a device maximum,
    /// or the device to extend is not instantiated.
    ExtraUnitsExceedMaximum {
        /// The device that was to be extended.
        device: DeviceRef,
        /// False when the device has no instance to extend (a route
        /// always has one).
        instantiated: bool,
    },
}

impl fmt::Display for ResourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceError::NoSuchArraySlot { site, slot } => {
                write!(f, "no array slot {slot} at {site}")
            }
            ResourceError::NoSuchTapeSlot { site, slot } => {
                write!(f, "no tape slot {slot} at {site}")
            }
            ResourceError::DeviceExhausted { device } => {
                write!(f, "device exhausted: {device}")
            }
            ResourceError::RouteExhausted { route } => {
                write!(f, "route exhausted: {route}")
            }
            ResourceError::NoRoute { a, b } => write!(f, "no route between {a} and {b}"),
            ResourceError::ComputeExhausted { site } => {
                write!(f, "compute exhausted at {site}")
            }
            ResourceError::ExtraUnitsExceedMaximum { device, instantiated: true } => {
                write!(f, "extra units exceed maximum for {device}")
            }
            ResourceError::ExtraUnitsExceedMaximum { device, instantiated: false } => {
                write!(f, "extra units exceed maximum for {device} (not instantiated)")
            }
        }
    }
}

impl Error for ResourceError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provision::{ArrayRef, TapeRef};

    #[test]
    fn errors_display_lowercase_messages() {
        let e = ResourceError::NoRoute { a: SiteId(0), b: SiteId(1) };
        assert_eq!(e.to_string(), "no route between site#0 and site#1");
        let e = ResourceError::ComputeExhausted { site: SiteId(2) };
        assert!(e.to_string().contains("site#2"));
        let array = DeviceRef::Array(ArrayRef { site: SiteId(0), slot: 1 });
        let e = ResourceError::DeviceExhausted { device: array };
        assert_eq!(e.to_string(), "device exhausted: array@site#0/1");
    }

    #[test]
    fn every_variant_names_its_device() {
        let array = DeviceRef::Array(ArrayRef { site: SiteId(0), slot: 1 });
        let tape = DeviceRef::Tape(TapeRef { site: SiteId(2), slot: 0 });
        let route = DeviceRef::Route(RouteId(3));
        let cases = [
            (
                ResourceError::NoSuchArraySlot { site: SiteId(1), slot: 4 },
                "no array slot 4 at site#1",
            ),
            (
                ResourceError::NoSuchTapeSlot { site: SiteId(1), slot: 2 },
                "no tape slot 2 at site#1",
            ),
            (ResourceError::DeviceExhausted { device: tape }, "device exhausted: tape@site#2/0"),
            (ResourceError::RouteExhausted { route: RouteId(3) }, "route exhausted: route#3"),
            (
                ResourceError::NoRoute { a: SiteId(0), b: SiteId(5) },
                "no route between site#0 and site#5",
            ),
            (ResourceError::ComputeExhausted { site: SiteId(2) }, "compute exhausted at site#2"),
            (
                ResourceError::ExtraUnitsExceedMaximum { device: array, instantiated: true },
                "extra units exceed maximum for array@site#0/1",
            ),
            (
                ResourceError::ExtraUnitsExceedMaximum { device: route, instantiated: true },
                "extra units exceed maximum for route#3",
            ),
            (
                ResourceError::ExtraUnitsExceedMaximum { device: tape, instantiated: false },
                "extra units exceed maximum for tape@site#2/0 (not instantiated)",
            ),
        ];
        for (error, message) in cases {
            assert_eq!(error.to_string(), message, "{error:?}");
        }
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<ResourceError>();
    }
}
