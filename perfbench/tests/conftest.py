from perfbench import use_checkout_source

use_checkout_source()
