# The benchmark's build file. hook.cmake includes it at the end of the
# repository's top-level CMakeLists.txt, so the target below inherits that
# project's build type, flags and options unchanged.
add_executable(perfbench
  ${CMAKE_CURRENT_LIST_DIR}/src/main.cpp
  ${CMAKE_CURRENT_LIST_DIR}/src/bench.cpp
  ${CMAKE_CURRENT_LIST_DIR}/src/train.cpp
  ${CMAKE_CURRENT_LIST_DIR}/src/eval.cpp
  ${CMAKE_CURRENT_LIST_DIR}/src/serve.cpp
)
target_link_libraries(perfbench PRIVATE si_dist si_serve si_check si_core
                      si_rl si_sim si_sched si_workload si_obs si_common)

# Recorded with every result: the flags this binary and the libraries it
# links were compiled with.
string(TOUPPER "${CMAKE_BUILD_TYPE}" perfbench_build_type)
get_directory_property(perfbench_opts DIRECTORY ${CMAKE_SOURCE_DIR}
                       COMPILE_OPTIONS)
string(JOIN " " perfbench_flags ${CMAKE_CXX_FLAGS}
       ${CMAKE_CXX_FLAGS_${perfbench_build_type}} ${perfbench_opts})
target_compile_definitions(perfbench PRIVATE
  PERFBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}"
  PERFBENCH_FLAGS="${perfbench_flags}")
