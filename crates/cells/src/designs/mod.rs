//! The shipped cell designs.

mod cmos16t;
mod fefet;
mod rram2t2r;

pub use cmos16t::Cmos16T;
pub use fefet::FeFetTcam;
pub use rram2t2r::Rram2T2R;
